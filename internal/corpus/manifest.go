package corpus

import (
	"encoding/json"
	"os"
	"path/filepath"
)

// ManifestSchema identifies the on-disk manifest layout. A manifest carrying
// any other schema string — including a future v2 — is treated like a
// missing manifest: the run degrades to a cold start, never an error.
const ManifestSchema = "pardetect.corpus/v1"

// manifestEntry records what the last run knew about one corpus file. Raw
// is the cheap proof of "unchanged": a file whose bytes still hash to Raw is
// skipped without being decoded. Key is the program's content fingerprint —
// the incremental-analysis key: a file whose bytes changed but whose decoded
// program still fingerprints to Key is skipped too. Either way the skip
// touches neither the store nor the analysis pipeline. Headline and
// Fingerprint carry enough of the result forward for the skipped file's
// report line to be byte-identical to the run that analysed it.
type manifestEntry struct {
	// Raw is the hex SHA-256 of the file's bytes. Manifests written before
	// the field existed lack it, so their files fall back to decode once;
	// older binaries ignore it (the field is additive within v1).
	Raw string `json:"raw,omitempty"`
	// Key is the program's content fingerprint (core.ProgramFingerprint) —
	// also the content address of the result in the store tier.
	Key string `json:"key"`
	// Program is the decoded program's name.
	Program string `json:"program"`
	// Headline is the detected pattern label.
	Headline string `json:"headline"`
	// Fingerprint is the result digest (core.Result.Fingerprint).
	Fingerprint string `json:"fingerprint"`
}

// manifestFile is the versioned JSON document persisted between runs.
type manifestFile struct {
	Schema string `json:"schema"`
	// Entries maps corpus-relative file paths to their last-known state.
	// Files that failed (undecodable, analysis error) are never recorded,
	// so a failed file is retried on every run until it succeeds.
	Entries map[string]manifestEntry `json:"entries"`
}

// loadManifest reads the manifest. A missing file is a plain cold start
// (nil, false); an unreadable, unparseable or wrong-schema file is a cold
// start too, but reported as corrupt so the caller can count it. A corrupt
// manifest is never an error: the worst case is re-analysing work the store
// tier will mostly absorb.
func loadManifest(path string) (entries map[string]manifestEntry, corrupt bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, false
		}
		return nil, true
	}
	var m manifestFile
	if err := json.Unmarshal(data, &m); err != nil || m.Schema != ManifestSchema || m.Entries == nil {
		return nil, true
	}
	return m.Entries, false
}

// saveManifest writes the manifest atomically — temp file in the destination
// directory, then rename — mirroring the store's durability discipline: a
// reader (the next run) never sees a half-written manifest, and a crash
// mid-write leaves the previous manifest intact.
func saveManifest(path string, entries map[string]manifestEntry) error {
	data, err := json.MarshalIndent(manifestFile{Schema: ManifestSchema, Entries: entries}, "", "  ")
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+"-*.tmp")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}
