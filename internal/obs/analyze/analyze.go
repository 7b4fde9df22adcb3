// Package analyze is the trace-analysis and diagnosis engine of the
// observability stack: it consumes obs.Event streams (live from a
// Tracer, or read back from JSONL exports) and produces the paper's
// Tables-and-Figures reasoning on measured data —
//
//   - a fork-join critical-path reconstruction per parallel region
//     (work, span, critical path, achieved and achievable speedup),
//   - an Amdahl attribution splitting each loop's wall time into
//     parallel work, serial residue, measured barrier waits, load
//     imbalance and synchronization overhead (the three loss buckets
//     of §3: "too much time spent executing serial code", the Table 1
//     synchronization budget, and the stair-step imbalance of
//     Table 3),
//   - per-loop synchronization-budget verdicts against the Table 1
//     minimum-work criterion at the measured work per sync event (the
//     quantity Table 2 tabulates), read at break-even with the host's
//     cost of a region on a running team, model.RegionNs,
//   - measured stair-step occupancy: speedup per (units, team size)
//     pair with plateau detection, directly comparable to Table 3 and
//     Figure 1, and
//   - a plateau audit of scheduler grants against model.PlateauProcs.
//
// The attribution is exact by construction: for every loop, the five
// components sum to the loop's wall time (serial residue is defined as
// the remainder outside parallel regions, and the in-region remainder
// is split between model-bounded sync overhead and imbalance), so a
// report can be checked for self-consistency to floating-point
// rounding.
//
// Work and costs are nanoseconds as measured; the fields named *Cycles
// count one cycle per nanosecond, the unit of model.RegionNs.
//
// Phase spans (obs.KindPhase, one per solver step group) are ranked
// under their names but open no loop: they contain the regions a loop
// is built from, and charging them again would break the exact sum.
//
// Reports are plain JSON-serializable values: cmd/f3dd serves them at
// GET /analyze and cmd/tracetool renders them offline.
package analyze

import (
	"math"
	"sort"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
)

// Schema versions the Report JSON shape (bumped on incompatible
// change), so a reader can tell reports of different shapes apart.
const Schema = 2

// plateauTolPct is the relative tolerance (percent) within which two
// team sizes' measured speedups count as the same stair-step plateau.
const plateauTolPct = 1

// Attribution splits wall time into the paper's loss buckets. All
// components are expressed in per-processor wall nanoseconds and sum
// to WallNs exactly (up to integer rounding, reported as ResidualNs):
//
//	WallNs = ParallelNs + SerialNs + BarrierNs + ImbalanceNs + SyncNs
type Attribution struct {
	// WallNs is the attributed wall time.
	WallNs int64 `json:"wall_ns"`
	// ParallelNs is perfectly parallel work: Σ region work/P.
	ParallelNs int64 `json:"parallel_ns"`
	// SerialNs is the serial residue — wall time outside any parallel
	// region (Amdahl's serial fraction).
	SerialNs int64 `json:"serial_ns"`
	// BarrierNs is measured barrier-wait time, Σ waits/P — the load
	// imbalance the workers actually sat out at mid-region barriers.
	BarrierNs int64 `json:"barrier_ns"`
	// ImbalanceNs is join-side load imbalance: in-region time not
	// covered by work, barrier waits or the sync-cost model — idle
	// processors waiting for the critical-path worker (the stair-step
	// loss of Table 3).
	ImbalanceNs int64 `json:"imbalance_ns"`
	// SyncNs is modeled synchronization overhead: the in-region
	// remainder capped at SyncEvents × model.RegionNs / P.
	SyncNs int64 `json:"sync_ns"`
	// ResidualNs is WallNs minus the five components — integer
	// rounding only; a self-consistency witness.
	ResidualNs int64 `json:"residual_ns"`

	// Fractions of WallNs, for direct Amdahl reasoning.
	ParallelFrac  float64 `json:"parallel_frac"`
	SerialFrac    float64 `json:"serial_frac"`
	BarrierFrac   float64 `json:"barrier_frac"`
	ImbalanceFrac float64 `json:"imbalance_frac"`
	SyncFrac      float64 `json:"sync_frac"`
}

// finish computes fractions and the residual from the ns components.
func (a *Attribution) finish() {
	a.ResidualNs = a.WallNs - a.ParallelNs - a.SerialNs - a.BarrierNs - a.ImbalanceNs - a.SyncNs
	if a.WallNs > 0 {
		w := float64(a.WallNs)
		a.ParallelFrac = float64(a.ParallelNs) / w
		a.SerialFrac = float64(a.SerialNs) / w
		a.BarrierFrac = float64(a.BarrierNs) / w
		a.ImbalanceFrac = float64(a.ImbalanceNs) / w
		a.SyncFrac = float64(a.SyncNs) / w
	}
}

// Budget is the Table 1 synchronization-budget verdict for one loop.
type Budget struct {
	// WorkPerSyncCycles is the measured work per synchronization
	// event — the quantity Table 2 tabulates.
	WorkPerSyncCycles float64 `json:"work_per_sync_cycles"`
	// MinWorkCycles is Table 1 read at break-even at the loop's team
	// size P: MinWorkPerLoop(P, model.RegionNs, 1).
	MinWorkCycles float64 `json:"min_work_cycles"`
	// Ratio is WorkPerSyncCycles / MinWorkCycles; >= 1 passes.
	Ratio float64 `json:"ratio"`
	// OverheadFrac estimates the fraction of region wall time paid to
	// synchronization: RegionNs / (RegionNs + workPerSync/P).
	OverheadFrac float64 `json:"overhead_frac"`
	// Pass reports whether the loop clears the Table 1 criterion.
	Pass bool `json:"pass"`
}

// Loop aggregates every parallel region sharing one trace label
// (normally one job's dominant loop).
type Loop struct {
	Name string `json:"name"`
	// Regions is the number of complete fork-join regions analyzed;
	// IncompleteRegions counts regions lost to trace truncation.
	Regions           int `json:"regions"`
	IncompleteRegions int `json:"incomplete_regions,omitempty"`
	// Barriers is the number of mid-region barrier crossings;
	// SyncEvents = Regions + Barriers, the paper's synchronization
	// count.
	Barriers   int `json:"barriers"`
	SyncEvents int `json:"sync_events"`
	// Workers is the largest team size observed; Units the largest
	// per-region unit count (Σ chunk index ranges); Chunks the total
	// chunk spans.
	Workers int `json:"workers"`
	Units   int `json:"units"`
	Chunks  int `json:"chunks"`

	// WorkNs is Σ chunk durations (worker-time); SpanNs Σ region
	// durations; CriticalNs Σ per-region critical paths (the longest
	// chain of chunk work through the region's barrier phases);
	// BarrierWaitNs Σ barrier waits (worker-time).
	WorkNs        int64 `json:"work_ns"`
	SpanNs        int64 `json:"span_ns"`
	CriticalNs    int64 `json:"critical_ns"`
	BarrierWaitNs int64 `json:"barrier_wait_ns"`
	// WallNs spans the loop's first event to its last; SerialNs is
	// the part outside any region.
	WallNs   int64 `json:"wall_ns"`
	SerialNs int64 `json:"serial_ns"`

	// AchievedSpeedup is work/span — the parallelism actually
	// realized. AchievableSpeedup is work/critical-path — the best
	// this loop's dependence structure allows on any processor count
	// (the stair-step ceiling).
	AchievedSpeedup   float64 `json:"achieved_speedup"`
	AchievableSpeedup float64 `json:"achievable_speedup"`

	Attribution Attribution `json:"attribution"`
	Budget      Budget      `json:"budget"`
}

// Occupancy is the measured stair-step cell for one (units, team
// size) pair, comparable to a Table 3 row or a Figure 1 point.
type Occupancy struct {
	Units   int `json:"units"`
	Workers int `json:"workers"`
	Regions int `json:"regions"`
	// MeasuredSpeedup is Σwork / Σcritical-path over the cell's
	// regions; PredictedSpeedup is model.StairStepSpeedup.
	MeasuredSpeedup  float64 `json:"measured_speedup"`
	PredictedSpeedup float64 `json:"predicted_speedup"`
	// ErrPct is 100·(measured−predicted)/predicted.
	ErrPct float64 `json:"err_pct"`
}

// Plateau is a run of observed team sizes sharing one measured
// speedup step — the analyzer's reconstruction of a Table 3 row.
type Plateau struct {
	Units            int     `json:"units"`
	ProcsLo          int     `json:"procs_lo"`
	ProcsHi          int     `json:"procs_hi"`
	MeasuredSpeedup  float64 `json:"measured_speedup"`
	PredictedSpeedup float64 `json:"predicted_speedup"`
}

// GrantBucket is one cell of the scheduler grant-size histogram,
// audited against the stair-step plateaus of the job's requested
// parallelism.
type GrantBucket struct {
	Name      string `json:"name"`
	Requested int    `json:"requested"`
	Procs     int    `json:"procs"`
	Count     int    `json:"count"`
	// OnPlateau reports whether Procs sits at the left edge of a
	// stair-step plateau of Requested — the only efficient grants.
	OnPlateau bool `json:"on_plateau"`
	// PredictedSpeedup is the stair-step speedup at this grant.
	PredictedSpeedup float64 `json:"predicted_speedup"`
}

// Report is the full diagnosis.
type Report struct {
	Schema int    `json:"schema"`
	Label  string `json:"label,omitempty"`

	// Events analyzed; Truncated and DroppedEvents flag reports built
	// from a trace that lost events to ring wraparound (attribution
	// from such traces undercounts whatever was overwritten).
	Events        int   `json:"events"`
	Truncated     bool  `json:"truncated"`
	DroppedEvents int64 `json:"dropped_events,omitempty"`

	// WallNs is the elapsed span of the whole trace (first event
	// start to last event end).
	WallNs int64 `json:"wall_ns"`

	// Totals sums the per-loop attributions. Its WallNs is the sum of
	// per-loop walls, which exceeds the report WallNs when traced
	// jobs overlap in time.
	Totals Attribution `json:"totals"`

	// Loops, most work first.
	Loops []Loop `json:"loops"`

	// Occupancy cells sorted by (units, workers), and the plateaus
	// detected from them.
	Occupancy []Occupancy `json:"occupancy,omitempty"`
	Plateaus  []Plateau   `json:"plateaus,omitempty"`

	// Grants audits scheduler grant/resize events;
	// PlateauEfficiency is the fraction of them on a plateau edge.
	Grants            []GrantBucket `json:"grants,omitempty"`
	PlateauEfficiency float64       `json:"plateau_efficiency"`

	// Ranked is the prof-style ranked loop profile (region, barrier,
	// chunk and phase charges, see rank) — the paper's §4 ranked-loop
	// view of the same trace.
	Ranked []Entry `json:"ranked,omitempty"`
}

// span is one chunk or barrier occurrence inside a region.
type span struct {
	worker  int
	at      time.Time // event timestamp (span end)
	dur     time.Duration
	lo, hi  int64
	barrier bool
}

// loopState accumulates one label's regions while scanning the
// stream.
type loopState struct {
	loop    Loop
	pending []span
	open    bool // region begin seen, end not yet

	haveBounds   bool
	first        time.Time // earliest event start
	last         time.Time // latest event end
	parallelNs   float64
	barrierNs    float64
	imbalanceNs  float64
	syncNs       float64
	sumSpanNs    float64
	workPerCycle float64
}

// occKey identifies an occupancy cell.
type occKey struct{ units, workers int }

type occAgg struct {
	regions  int
	workNs   float64
	criticNs float64
}

type grantKey struct {
	name      string
	requested int
	procs     int
}

// Analyze builds a Report from an event stream (oldest first, as
// returned by Tracer.Events/EventsSince or obs.ReadJSONL).
func Analyze(events []obs.Event) *Report {
	r := &Report{Schema: Schema, Events: len(events)}

	loops := make(map[string]*loopState)
	order := []string{}
	occ := make(map[occKey]*occAgg)
	grants := make(map[grantKey]int)
	requested := make(map[string]int) // latest known M per label

	state := func(name string) *loopState {
		ls := loops[name]
		if ls == nil {
			ls = &loopState{loop: Loop{Name: name}}
			loops[name] = ls
			order = append(order, name)
		}
		return ls
	}

	var traceStart, traceEnd time.Time
	haveTime := false
	bound := func(start, end time.Time) {
		if !haveTime {
			traceStart, traceEnd, haveTime = start, end, true
			return
		}
		if start.Before(traceStart) {
			traceStart = start
		}
		if end.After(traceEnd) {
			traceEnd = end
		}
	}

	for _, e := range events {
		switch e.Kind {
		case obs.KindTraceDropped:
			r.Truncated = true
			r.DroppedEvents += e.A
			continue
		case obs.KindGrant:
			requested[e.Name] = int(e.B)
			grants[grantKey{e.Name, int(e.B), int(e.A)}]++
			bound(e.At, e.At)
			continue
		case obs.KindResize:
			m := int(e.C)
			if m <= 0 {
				m = requested[e.Name]
			} else {
				requested[e.Name] = m
			}
			if m > 0 {
				grants[grantKey{e.Name, m, int(e.B)}]++
			}
			bound(e.At, e.At)
			continue
		case obs.KindPreempt:
			// A shrink *request*; the applied resize follows at the
			// victim's checkpoint. Only bounds time.
			bound(e.At, e.At)
			continue
		case obs.KindPhase:
			// Ranked, never attributed: its regions already are.
			bound(e.At.Add(-e.Dur), e.At)
			continue
		}

		ls := state(e.Name)
		start := e.At.Add(-e.Dur)
		bound(start, e.At)
		if !ls.haveBounds {
			ls.first, ls.last, ls.haveBounds = start, e.At, true
		} else {
			if start.Before(ls.first) {
				ls.first = start
			}
			if e.At.After(ls.last) {
				ls.last = e.At
			}
		}

		switch e.Kind {
		case obs.KindRegionBegin:
			if ls.open || len(ls.pending) > 0 {
				// The previous region's end was lost (truncation or a
				// panic mid-region): its partial spans cannot be
				// attributed.
				ls.loop.IncompleteRegions++
				ls.pending = ls.pending[:0]
			}
			ls.open = true
		case obs.KindChunk:
			ls.pending = append(ls.pending, span{worker: e.Worker, at: e.At, dur: e.Dur, lo: e.A, hi: e.B})
		case obs.KindBarrier:
			ls.pending = append(ls.pending, span{worker: e.Worker, at: e.At, dur: e.Dur, barrier: true})
		case obs.KindRegionEnd:
			closeRegion(ls, e, occ)
		}
	}

	// Regions still open at stream end were cut off by the capture
	// window.
	for _, ls := range loops {
		if ls.open || len(ls.pending) > 0 {
			ls.loop.IncompleteRegions++
		}
	}

	// Finalize loops: wall, serial residue, attribution, budget.
	for _, name := range order {
		ls := loops[name]
		l := &ls.loop
		if l.Regions == 0 && l.IncompleteRegions == 0 {
			continue
		}
		if ls.haveBounds {
			l.WallNs = ls.last.Sub(ls.first).Nanoseconds()
		}
		serial := float64(l.WallNs) - ls.sumSpanNs
		if serial < 0 {
			serial = 0
		}
		l.SerialNs = int64(math.Round(serial))
		if l.SpanNs > 0 {
			l.AchievedSpeedup = float64(l.WorkNs) / float64(l.SpanNs)
		}
		if l.CriticalNs > 0 {
			l.AchievableSpeedup = float64(l.WorkNs) / float64(l.CriticalNs)
		}
		l.Attribution = Attribution{
			WallNs:      l.WallNs,
			ParallelNs:  int64(math.Round(ls.parallelNs)),
			SerialNs:    l.SerialNs,
			BarrierNs:   int64(math.Round(ls.barrierNs)),
			ImbalanceNs: int64(math.Round(ls.imbalanceNs)),
			SyncNs:      int64(math.Round(ls.syncNs)),
		}
		l.Attribution.finish()
		l.Budget = budgetVerdict(l)
		r.Loops = append(r.Loops, *l)

		r.Totals.WallNs += l.Attribution.WallNs
		r.Totals.ParallelNs += l.Attribution.ParallelNs
		r.Totals.SerialNs += l.Attribution.SerialNs
		r.Totals.BarrierNs += l.Attribution.BarrierNs
		r.Totals.ImbalanceNs += l.Attribution.ImbalanceNs
		r.Totals.SyncNs += l.Attribution.SyncNs
	}
	r.Totals.finish()
	sort.SliceStable(r.Loops, func(i, j int) bool { return r.Loops[i].WorkNs > r.Loops[j].WorkNs })

	if haveTime {
		r.WallNs = traceEnd.Sub(traceStart).Nanoseconds()
	}

	// Occupancy cells and plateau detection.
	keys := make([]occKey, 0, len(occ))
	for k := range occ {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].units != keys[j].units {
			return keys[i].units < keys[j].units
		}
		return keys[i].workers < keys[j].workers
	})
	for _, k := range keys {
		a := occ[k]
		cell := Occupancy{Units: k.units, Workers: k.workers, Regions: a.regions}
		if a.criticNs > 0 {
			cell.MeasuredSpeedup = a.workNs / a.criticNs
		}
		if k.units >= 1 && k.workers >= 1 {
			cell.PredictedSpeedup = model.StairStepSpeedup(k.units, k.workers)
			if cell.PredictedSpeedup > 0 {
				cell.ErrPct = 100 * (cell.MeasuredSpeedup - cell.PredictedSpeedup) / cell.PredictedSpeedup
			}
		}
		r.Occupancy = append(r.Occupancy, cell)
	}
	r.Plateaus = detectPlateaus(r.Occupancy)

	// Grant audit.
	gkeys := make([]grantKey, 0, len(grants))
	for k := range grants {
		gkeys = append(gkeys, k)
	}
	sort.Slice(gkeys, func(i, j int) bool {
		a, b := gkeys[i], gkeys[j]
		if a.name != b.name {
			return a.name < b.name
		}
		if a.requested != b.requested {
			return a.requested < b.requested
		}
		return a.procs < b.procs
	})
	total, onPlateau := 0, 0
	for _, k := range gkeys {
		count := grants[k]
		b := GrantBucket{Name: k.name, Requested: k.requested, Procs: k.procs, Count: count}
		if k.requested >= 1 && k.procs >= 1 {
			b.PredictedSpeedup = model.StairStepSpeedup(k.requested, k.procs)
			for _, p := range model.PlateauProcs(k.requested, k.requested) {
				if p == k.procs {
					b.OnPlateau = true
					break
				}
			}
		}
		total += count
		if b.OnPlateau {
			onPlateau += count
		}
		r.Grants = append(r.Grants, b)
	}
	if total > 0 {
		r.PlateauEfficiency = float64(onPlateau) / float64(total)
	}

	r.Ranked = rank(events)
	return r
}

// closeRegion finalizes one fork-join region from its end event and
// the pending chunk/barrier spans, charging the loop aggregates and
// the occupancy cell.
func closeRegion(ls *loopState, end obs.Event, occ map[occKey]*occAgg) {
	l := &ls.loop
	l.Regions++
	ls.open = false
	spans := ls.pending
	ls.pending = nil

	workers := int(end.A)
	if workers < 1 {
		workers = 1
	}
	if workers > l.Workers {
		l.Workers = workers
	}
	spanNs := float64(end.Dur.Nanoseconds())
	l.SpanNs += end.Dur.Nanoseconds()
	ls.sumSpanNs += spanNs

	// Per-worker phase split: a worker's barrier crossings partition
	// its chunks into phases; the critical path is the sum over
	// phases of the slowest worker's busy time in that phase.
	var workNs, barrierNs float64
	units := int64(0)
	chunks := 0
	barriersPerWorker := make(map[int]int)
	busy := make(map[int][]float64) // worker -> per-phase busy ns
	sort.SliceStable(spans, func(i, j int) bool {
		if !spans[i].at.Equal(spans[j].at) {
			return spans[i].at.Before(spans[j].at)
		}
		// A chunk ending exactly when a barrier completes belongs
		// before the crossing.
		return !spans[i].barrier && spans[j].barrier
	})
	phase := make(map[int]int)
	maxPhase := 0
	for _, s := range spans {
		if s.barrier {
			barrierNs += float64(s.dur.Nanoseconds())
			barriersPerWorker[s.worker]++
			phase[s.worker]++
			if phase[s.worker] > maxPhase {
				maxPhase = phase[s.worker]
			}
			continue
		}
		chunks++
		units += s.hi - s.lo
		workNs += float64(s.dur.Nanoseconds())
		p := phase[s.worker]
		if p > maxPhase {
			maxPhase = p
		}
		b := busy[s.worker]
		for len(b) <= p {
			b = append(b, 0)
		}
		b[p] += float64(s.dur.Nanoseconds())
		busy[s.worker] = b
	}

	crossings := 0
	for _, n := range barriersPerWorker {
		if n > crossings {
			crossings = n
		}
	}
	l.Barriers += crossings
	l.SyncEvents = l.Regions + l.Barriers
	l.Chunks += chunks
	if int(units) > l.Units {
		l.Units = int(units)
	}

	var critical float64
	if chunks == 0 {
		// No chunk attribution: the region is opaque; its whole span
		// is the critical path.
		critical = spanNs
	} else {
		for p := 0; p <= maxPhase; p++ {
			var m float64
			for _, b := range busy {
				if p < len(b) && b[p] > m {
					m = b[p]
				}
			}
			critical += m
		}
	}
	l.WorkNs += int64(math.Round(workNs))
	l.CriticalNs += int64(math.Round(critical))
	l.BarrierWaitNs += int64(math.Round(barrierNs))

	// Attribution: per-processor shares. The in-region remainder
	// beyond work and barrier waits is split between modeled sync
	// overhead (capped at syncEvents × model.RegionNs) and join-side
	// imbalance.
	p := float64(workers)
	parallel := workNs / p
	barrier := barrierNs / p
	remainder := spanNs - parallel - barrier
	if remainder < 0 {
		remainder = 0
	}
	syncNs := math.Min(remainder, float64(1+crossings)*model.RegionNs/p)
	ls.parallelNs += parallel
	ls.barrierNs += barrier
	ls.syncNs += syncNs
	ls.imbalanceNs += remainder - syncNs

	if chunks > 0 && units > 0 {
		k := occKey{units: int(units), workers: workers}
		a := occ[k]
		if a == nil {
			a = &occAgg{}
			occ[k] = a
		}
		a.regions++
		a.workNs += workNs
		a.criticNs += critical
	}
}

// budgetVerdict applies the Table 1 criterion at break-even to a
// finished loop.
func budgetVerdict(l *Loop) Budget {
	if l.SyncEvents == 0 {
		return Budget{Pass: true}
	}
	procs := max(l.Workers, 1)
	wps := float64(l.WorkNs) / float64(l.SyncEvents)
	minw := model.MinWorkPerLoop(procs, model.RegionNs, 1)
	return Budget{
		WorkPerSyncCycles: wps,
		MinWorkCycles:     minw,
		Ratio:             wps / minw,
		OverheadFrac:      model.RegionNs / (model.RegionNs + wps/float64(procs)),
		Pass:              wps >= minw,
	}
}

// detectPlateaus groups occupancy cells with equal units and
// measured speedups within plateauTolPct into stair-step plateaus.
func detectPlateaus(cells []Occupancy) []Plateau {
	var out []Plateau
	var cur *Plateau
	var curUnits int
	for _, c := range cells {
		if c.MeasuredSpeedup <= 0 {
			continue
		}
		if cur != nil && c.Units == curUnits &&
			math.Abs(c.MeasuredSpeedup-cur.MeasuredSpeedup) <= cur.MeasuredSpeedup*plateauTolPct/100 {
			cur.ProcsHi = c.Workers
			continue
		}
		if cur != nil {
			out = append(out, *cur)
		}
		curUnits = c.Units
		cur = &Plateau{
			Units:            c.Units,
			ProcsLo:          c.Workers,
			ProcsHi:          c.Workers,
			MeasuredSpeedup:  c.MeasuredSpeedup,
			PredictedSpeedup: c.PredictedSpeedup,
		}
	}
	if cur != nil {
		out = append(out, *cur)
	}
	return out
}
