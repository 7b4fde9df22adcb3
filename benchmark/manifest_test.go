package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// BENCHMARK.json is generated (-manifest) from the tables in metrics.go;
// the two must not drift apart.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(buildManifest()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, buf.Bytes()) {
		t.Error("BENCHMARK.json differs from `run.sh -manifest`; regenerate it")
	}
}

func TestManifestWithinContractLimits(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet or length", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	m := buildManifest()
	if len(m.Workloads) < 2 || len(m.Workloads) > 8 || len(m.EndToEnd) > 16 || len(m.PerLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end and %d per-layer metrics", len(m.Workloads), len(m.EndToEnd), len(m.PerLayer))
	}
	for _, w := range m.Workloads {
		check(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("%s: why has %d characters", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, d := range append(append([]manifestMetric{}, m.EndToEnd...), m.PerLayer...) {
		check(d.Name)
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
		if d.Bound != nil && (*d.Bound <= 0 || *d.Bound > 0.25) {
			t.Errorf("%s: bound %g", d.Name, *d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower" && d.Bound != nil)
	}
	if !hasSetup {
		t.Error("no end-to-end setup_s metric in seconds, lower is better")
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d", m.RunSeconds)
	}
}
