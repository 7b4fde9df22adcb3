package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func sideOf(vs ...float64) side { return side{values: vs} }

func TestJudge(t *testing.T) {
	higher := metricDef{Name: "jobs_per_s", Better: "higher", Bound: 0.10}
	lower := metricDef{Name: "latency_p50_ms", Better: "lower", Bound: 0.10}
	exact := metricDef{Name: "cluster.msgs_step", Exact: true}
	info := metricDef{Name: "f3dd.submit_ms", Better: "lower"}
	tight := []float64{100, 101, 99, 100, 100.5}
	cases := []struct {
		name string
		d    metricDef
		a, b side
		want string
	}{
		{"same", higher, sideOf(tight...), sideOf(tight...), verdictOK},
		{"5% slower is inside the bound", higher, sideOf(tight...), sideOf(95, 95, 95, 95), verdictOK},
		{"15% slower", higher, sideOf(tight...), sideOf(85, 85, 85, 85), verdictRegressed},
		{"faster never regresses", higher, sideOf(tight...), sideOf(150, 150, 150, 150), verdictOK},
		{"latency up 15%", lower, sideOf(tight...), sideOf(115, 115, 115, 115), verdictRegressed},
		{"latency down", lower, sideOf(tight...), sideOf(50, 50, 50, 50), verdictOK},
		{"spread wider than the bound", higher, sideOf(80, 100, 120, 140, 90), sideOf(tight...), verdictUnresolved},
		{"single runs use the round spread", higher, side{values: []float64{100}, roundShare: 0.3}, sideOf(100), verdictUnresolved},
		{"single runs, tight rounds", higher, side{values: []float64{100}, roundShare: 0.02}, sideOf(99), verdictOK},
		{"counts must match", exact, sideOf(2.375), sideOf(2.375), verdictOK},
		{"counts differ", exact, sideOf(2.375), sideOf(2.5), verdictRegressed},
		{"per-layer is not judged", info, sideOf(1), sideOf(5), verdictInfo},
	}
	for _, c := range cases {
		if got := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, jobsPerS float64, failed int) string {
		path := filepath.Join(dir, name)
		var buf bytes.Buffer
		for i := 0; i < 4; i++ {
			m := metricSet{}
			for _, d := range endToEndDefs {
				m.set(d.Name, 10)
			}
			m.set("jobs_per_s", jobsPerS+float64(i)*0.01)
			b, _ := json.Marshal(record{Workload: "serve_mix", Seed: int64(i), Attempted: 100, Failed: failed, Metrics: m})
			buf.Write(append(b, '\n'))
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.jsonl", 6, 0)

	var out bytes.Buffer
	bad, err := compareFiles(&out, a, a)
	if err != nil || bad {
		t.Fatalf("A against itself: bad=%v err=%v\n%s", bad, err, out.String())
	}
	if !strings.Contains(out.String(), "jobs_per_s") || strings.Contains(out.String(), verdictRegressed) {
		t.Errorf("unexpected A/A table:\n%s", out.String())
	}

	out.Reset()
	bad, err = compareFiles(&out, a, write("slow.jsonl", 4, 0))
	if err != nil || !bad || !strings.Contains(out.String(), verdictRegressed) {
		t.Errorf("a 33%% drop in jobs_per_s was not flagged: bad=%v err=%v\n%s", bad, err, out.String())
	}

	out.Reset()
	bad, err = compareFiles(&out, a, write("failing.jsonl", 6, 1))
	if err != nil || !bad {
		t.Errorf("an increase in failed_share was not flagged: bad=%v err=%v\n%s", bad, err, out.String())
	}
}
