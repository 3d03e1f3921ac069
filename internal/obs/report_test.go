package obs

import "testing"

// goldenReport is a fully-populated report with fixed values; the golden
// tests below pin both the JSON schema (the `benchtab -stats-out` format)
// and the text rendering (`pardetect -stats`).
// Changing either layout must be deliberate: update the golden strings AND
// bump the Schema version on incompatible JSON changes.
func goldenReport() Report {
	return Report{
		Schema: Schema,
		Label:  "demo",
		WallNS: 2500000,
		Spans: []SpanReport{
			{
				Name: "analyze", NS: 2000000, AllocBytes: 4096,
				Children: []SpanReport{
					{Name: "phase1.profile", NS: 1500000, AllocBytes: 2048},
					{Name: "headline", NS: 800, AllocBytes: 0},
				},
			},
			{Name: "sched.sweep", NS: 1200000000, AllocBytes: 3 << 20},
		},
		Counters: Counters{
			"events.loads": 1234,
			"profile.deps": 49,
		},
		Decide: []Decision{
			{Stage: "pipeline", Candidate: "f.L1->f.L2", Accepted: true, Code: CodePipeline, Detail: "a=1.000 b=0.000 e=1.000"},
			{Stage: "taskpar", Candidate: "main()", Accepted: false, Code: CodeNoIndependentWork, Detail: "no two path-independent substantial CUs"},
		},
	}
}

const goldenJSON = `{
  "schema": "pardetect.obs/v1",
  "label": "demo",
  "wall_ns": 2500000,
  "spans": [
    {
      "name": "analyze",
      "ns": 2000000,
      "alloc_bytes": 4096,
      "children": [
        {
          "name": "phase1.profile",
          "ns": 1500000,
          "alloc_bytes": 2048
        },
        {
          "name": "headline",
          "ns": 800,
          "alloc_bytes": 0
        }
      ]
    },
    {
      "name": "sched.sweep",
      "ns": 1200000000,
      "alloc_bytes": 3145728
    }
  ],
  "counters": {
    "events.loads": 1234,
    "profile.deps": 49
  },
  "decisions": [
    {
      "stage": "pipeline",
      "candidate": "f.L1->f.L2",
      "accepted": true,
      "code": "PIPELINE",
      "detail": "a=1.000 b=0.000 e=1.000"
    },
    {
      "stage": "taskpar",
      "candidate": "main()",
      "accepted": false,
      "code": "NO_INDEPENDENT_WORK",
      "detail": "no two path-independent substantial CUs"
    }
  ]
}
`

const goldenText = `=== telemetry: demo ===
phase spans (wall time, allocated bytes):
  analyze                                 2.000ms       4.00KB
    phase1.profile                        1.500ms       2.00KB
    headline                                800ns           0B
  sched.sweep                              1.200s       3.00MB
counters:
  events.loads                               1234
  profile.deps                                 49
decision log:
  [pipeline ] f.L1->f.L2                         accepted PIPELINE                   a=1.000 b=0.000 e=1.000
  [taskpar  ] main()                             rejected NO_INDEPENDENT_WORK        no two path-independent substantial CUs
`

func TestReportJSONGolden(t *testing.T) {
	data, err := goldenReport().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != goldenJSON {
		t.Errorf("JSON schema drifted.\n--- got ---\n%s\n--- want ---\n%s", data, goldenJSON)
	}
}

func TestReportTextGolden(t *testing.T) {
	got := goldenReport().Text()
	if got != goldenText {
		t.Errorf("text rendering drifted.\n--- got ---\n%s\n--- want ---\n%s", got, goldenText)
	}
}

func TestRunSetJSONGolden(t *testing.T) {
	rs := RunSet{Schema: RunSetSchema, Runs: []Report{{Schema: Schema, Label: "a", Counters: Counters{}}}}
	data, err := rs.JSON()
	if err != nil {
		t.Fatal(err)
	}
	want := `{
  "schema": "pardetect.obs.runset/v1",
  "runs": [
    {
      "schema": "pardetect.obs/v1",
      "label": "a",
      "wall_ns": 0,
      "counters": {}
    }
  ]
}
`
	if string(data) != want {
		t.Errorf("runset schema drifted.\n--- got ---\n%s\n--- want ---\n%s", data, want)
	}
}
