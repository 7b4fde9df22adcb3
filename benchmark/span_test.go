package main

import "testing"

func TestSelfTimeOverlappingChildren(t *testing.T) {
	root := span{Trace: 1, Span: 1, Name: "job", Start: 0, End: 100}
	kids := []span{
		{Trace: 1, Span: 2, Parent: 1, Name: "submit", Start: 0, End: 10},
		{Trace: 1, Span: 3, Parent: 1, Name: "running", Start: 20, End: 70},
		{Trace: 1, Span: 4, Parent: 1, Name: "poll", Start: 30, End: 40}, // inside running
		{Trace: 1, Span: 5, Parent: 1, Name: "poll", Start: 60, End: 90}, // straddles its end
	}
	// Union of children: [0,10] + [20,90] = 80, so self = 20.
	if got := selfTime(root, kids); got != 20 {
		t.Errorf("selfTime = %d, want 20", got)
	}
	got := attribute(root, kids)
	want := map[string]int64{"submit": 10, "running": 50, "poll": 20, selfKey: 20}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("attribute[%s] = %d, want %d", k, got[k], v)
		}
	}
	if roots, err := checkClosure(append([]span{root}, kids...)); err != nil || roots != 1 {
		t.Errorf("checkClosure = %d, %v", roots, err)
	}
}

func TestSelfTimeEdgeCases(t *testing.T) {
	root := span{Span: 1, Start: 100, End: 200}
	if got := selfTime(root, nil); got != 100 {
		t.Errorf("no children: self = %d, want 100", got)
	}
	// Children reaching outside the root are clipped to it.
	kids := []span{{Name: "a", Start: 50, End: 120}, {Name: "b", Start: 190, End: 400}}
	if got := selfTime(root, kids); got != 70 {
		t.Errorf("clipped children: self = %d, want 70", got)
	}
	// A child covering everything leaves no self time.
	if got := selfTime(root, []span{{Name: "a", Start: 0, End: 1000}}); got != 0 {
		t.Errorf("covering child: self = %d, want 0", got)
	}
}

func TestCheckClosureRejectsEscapingChild(t *testing.T) {
	spans := []span{
		{Trace: 1, Span: 1, Name: "solve", Start: 0, End: 100},
		{Trace: 1, Span: 2, Parent: 1, Name: "rpc.step", Start: 90, End: 110},
	}
	if _, err := checkClosure(spans); err == nil {
		t.Error("a child ending after its root passed the closure check")
	}
	spans[1].End = 100
	spans[1].Trace = 2
	if _, err := checkClosure(spans); err == nil {
		t.Error("a child on another trace passed the closure check")
	}
}
