package parloop

import (
	"encoding/json"
	"fmt"
)

// Schedules lists every schedule the runtime implements, in declaration
// order. Adaptive controllers use it as the legal exploration axis.
func Schedules() []Schedule {
	return []Schedule{Static, StaticCyclic, Dynamic, Guided}
}

// ParseSchedule is the inverse of Schedule.String.
func ParseSchedule(s string) (Schedule, error) {
	for _, sc := range Schedules() {
		if sc.String() == s {
			return sc, nil
		}
	}
	return 0, fmt.Errorf("parloop: unknown schedule %q", s)
}

// MarshalJSON encodes the schedule by its OpenMP-style name so wire
// formats (f3dd's /adapt endpoint, tracetool reports) stay readable and
// stable across reorderings of the enum.
func (s Schedule) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.String())
}

// UnmarshalJSON decodes a schedule name produced by MarshalJSON.
func (s *Schedule) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	sc, err := ParseSchedule(name)
	if err != nil {
		return err
	}
	*s = sc
	return nil
}
