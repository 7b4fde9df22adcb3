package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"testing"
)

// encodeBlock is the wire form of a block, one JSON body per line: the
// bytes the daemon receives.
func encodeBlock(t *testing.T, b []jobSpec) []byte {
	var out []byte
	for i := range b {
		body, err := json.Marshal(&b[i])
		if err != nil {
			t.Fatal(err)
		}
		out = append(append(out, body...), '\n')
	}
	return out
}

func TestGenBlockDeterministic(t *testing.T) {
	for _, w := range []string{"serve_solo", "serve_mix", "serve_small"} {
		a := encodeBlock(t, genBlock(w, 7, 3))
		b := encodeBlock(t, genBlock(w, 7, 3))
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed and block gave different job lists", w)
		}
		if bytes.Equal(a, encodeBlock(t, genBlock(w, 8, 3))) {
			t.Errorf("%s: seeds 7 and 8 gave the same job list", w)
		}
		if bytes.Equal(a, encodeBlock(t, genBlock(w, 7, 4))) {
			t.Errorf("%s: blocks 3 and 4 gave the same job list", w)
		}
	}
}

// Every block of a workload must hold the same multiset of jobs, so
// that work per block repeats exactly whatever the seed.
func TestGenBlockBalanced(t *testing.T) {
	key := func(b []jobSpec) string {
		var ks []string
		for _, j := range b {
			j.Name = ""
			ks = append(ks, fmt.Sprintf("%+v", j))
		}
		sort.Strings(ks)
		return fmt.Sprint(ks)
	}
	sizes := map[string]int{"serve_solo": 15, "serve_mix": 46, "serve_small": 600}
	for w, n := range sizes {
		ref := genBlock(w, 1, 0)
		if len(ref) != n {
			t.Errorf("%s: block has %d jobs, want %d", w, len(ref), n)
		}
		for _, other := range [][]jobSpec{genBlock(w, 2, 0), genBlock(w, 1, 5)} {
			if key(other) != key(ref) {
				t.Errorf("%s: blocks differ in more than order", w)
			}
		}
	}
}

func TestSpecAccounting(t *testing.T) {
	j := f3dSpec(dims{33, 27, 25, "small"}, 10)
	if j.Interior != 31*25*23 || j.Dims != "33x27x25" {
		t.Errorf("f3dSpec = %+v", j)
	}
	if got, want := j.flops(), float64(31*25*23*10*1148); got != want {
		t.Errorf("flops = %g, want %g", got, want)
	}
	if a, b := clusterJobKey(1, 2), clusterJobKey(1<<40, 999); len(a) != len(b) || a == b {
		t.Errorf("job keys %q and %q should differ but have one length", a, b)
	}
}
