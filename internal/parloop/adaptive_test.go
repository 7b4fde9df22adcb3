package parloop

import (
	"encoding/json"
	"testing"
)

func TestScheduleJSONRoundTrip(t *testing.T) {
	for _, sched := range Schedules() {
		b, err := json.Marshal(sched)
		if err != nil {
			t.Fatalf("marshal %v: %v", sched, err)
		}
		var got Schedule
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		if got != sched {
			t.Fatalf("round trip %v -> %s -> %v", sched, b, got)
		}
	}
	var s Schedule
	if err := json.Unmarshal([]byte(`"no-such"`), &s); err == nil {
		t.Fatal("unmarshal of unknown schedule name succeeded")
	}
	if err := json.Unmarshal([]byte(`17`), &s); err == nil {
		t.Fatal("unmarshal of numeric schedule succeeded")
	}
	if _, err := ParseSchedule("dynamic"); err != nil {
		t.Fatalf("ParseSchedule(dynamic): %v", err)
	}
}
