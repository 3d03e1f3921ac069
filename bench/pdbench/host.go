package main

import (
	"bufio"
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// noisyStealPct is the host steal share above which a run is flagged noisy.
// Such a run is kept: the flag tells a reader why its times may be off.
const noisyStealPct = 10

// provenance records where and under what load a run was made.
type provenance struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       uint64  `json:"seed"`
	LoadAvg    string  `json:"loadavg_at_start"`
	StealPct   float64 `json:"steal_pct"` // host.steal_pct: share of CPU time stolen over the run
	Noisy      bool    `json:"noisy"`

	steal0, total0 uint64
}

func startProvenance(seed uint64) *provenance {
	p := &provenance{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     gitHead(),
		Seed:       seed,
	}
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(data)); len(f) >= 3 {
			p.LoadAvg = strings.Join(f[:3], " ")
		}
	}
	p.steal0, p.total0 = cpuStat()
	return p
}

// finish closes the steal measurement and returns the record.
func (p *provenance) finish() provenance {
	steal, total := cpuStat()
	if total > p.total0 {
		p.StealPct = 100 * float64(steal-p.steal0) / float64(total-p.total0)
	}
	p.Noisy = p.StealPct > noisyStealPct
	return *p
}

// gitHead returns the commit being measured, or "unknown" outside a git
// checkout. git may not search above the working directory: a copy of the
// sources nested in another repository has no commit of its own.
func gitHead() string {
	wd, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// cpuStat returns the host's stolen and total CPU ticks from /proc/stat
// (zero where it is unreadable).
func cpuStat() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := bytes.Cut(data, []byte("\n"))
	f := strings.Fields(string(line))
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, _ := strconv.ParseUint(v, 10, 64)
		// guest and guest_nice (fields 9 and 10) are already counted in user
		// and nice.
		if i < 8 {
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// cpuTime returns the user plus system CPU time the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}
