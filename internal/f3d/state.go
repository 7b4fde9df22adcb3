package f3d

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/euler"
	"repro/internal/grid"
	"repro/internal/linalg"
	"repro/internal/parloop"
)

// ZoneState is the per-zone solution storage of a solver: the conserved
// variables Q and the working right-hand side / update field R.
type ZoneState struct {
	Zone *grid.Zone
	Q    grid.StateField
	R    grid.StateField
	// geom holds per-axis metric arrays for stretched directions (nil
	// entries for uniform directions).
	geom zoneGeom
	// pts holds euler.DecomposeInto of Q per point, in Zone.Index order, for
	// the tuned kernels (nil on the scalar reference, which recomputes from
	// Q). It is scratch, not state: valid only from a step's RHS J/K pass,
	// which rebuilds it from Q before its first read (fillPoints), to the
	// same step's sweepLUpdate, which changes Q. Nothing reads it outside
	// that window, so no write to Q between steps can leave it stale.
	pts []euler.PointState
}

// newZoneState builds zeroed solution storage for z in the given layout,
// with the per-point records the tuned kernels read when points is set.
// Point-major storage comes from the zone store: a closed solver's, when
// one of the same shape is held (release gives it back).
func newZoneState(z *grid.Zone, layout grid.Layout, points bool) *ZoneState {
	zs := &ZoneState{Zone: z, geom: newZoneGeom(z)}
	if layout != grid.PointMajor {
		zs.Q, zs.R = grid.NewStateField(z, euler.NC, layout), grid.NewStateField(z, euler.NC, layout)
		return zs
	}
	b := takeZoneBuf(z.Points(), points)
	zs.Q = grid.StateField{Zone: z, NC: euler.NC, Layout: layout, Vec: b.q}
	zs.R = grid.StateField{Zone: z, NC: euler.NC, Layout: layout, Vec: b.r}
	zs.pts = b.pts
	return zs
}

// release hands a point-major zone's storage to the zone store and
// leaves the zone without it, so a use after release panics instead of
// reading the next solver's state. Releasing twice is a no-op.
func (zs *ZoneState) release() {
	if zs.Q.Vec != nil {
		giveZoneBuf(zoneBuf{zs.Q.Vec, zs.R.Vec, zs.pts})
		zs.Q.Vec, zs.R.Vec, zs.pts = nil, nil, nil
	}
}

// The zone store keeps the storage of closed solvers for the next
// solver of the same shape, so a daemon serving a repeated job shape
// touches its pages once instead of once per job (DESIGN "Pages are
// touched only when used"). It holds at most zoneStoreSlots buffers and
// zoneStoreBytes bytes, evicting the oldest first; a buffer is taken
// out while a solver uses it, so two live solvers never share one. The
// store is process-wide, as a sync.Pool would be, because the next
// solver of a shape may come from any caller: an f3d.Job, a cluster
// shard, cmd/f3d.
const (
	zoneStoreSlots = 16
	zoneStoreBytes = 32 << 20
)

// zoneBuf is one point-major zone's storage: Q, R and, for the tuned
// kernels, the point records.
type zoneBuf struct {
	q, r []linalg.Vec5
	pts  []euler.PointState
}

// size is the buffer's footprint in bytes: 40 per state vector, 48 per
// point record.
func (b zoneBuf) size() int { return 80*len(b.q) + 48*len(b.pts) }

var zoneStore struct {
	sync.Mutex
	held  []zoneBuf // oldest first
	bytes int
}

// takeZoneBuf returns zeroed storage for a zone of n points: the most
// recently released buffer of that shape, cleared, or a new one.
func takeZoneBuf(n int, points bool) zoneBuf {
	zoneStore.Lock()
	for i := len(zoneStore.held) - 1; i >= 0; i-- {
		if b := zoneStore.held[i]; len(b.q) == n && (b.pts != nil) == points {
			dropHeldLocked(i)
			zoneStore.Unlock()
			clear(b.q)
			clear(b.r)
			clear(b.pts)
			return b
		}
	}
	zoneStore.Unlock()
	b := zoneBuf{q: make([]linalg.Vec5, n), r: make([]linalg.Vec5, n)}
	if points {
		b.pts = make([]euler.PointState, n)
	}
	return b
}

// giveZoneBuf puts b in the zone store, evicting the oldest buffers it
// no longer has room for; a buffer larger than the whole store is
// dropped.
func giveZoneBuf(b zoneBuf) {
	if b.size() > zoneStoreBytes {
		return
	}
	zoneStore.Lock()
	defer zoneStore.Unlock()
	for len(zoneStore.held) == zoneStoreSlots || zoneStore.bytes+b.size() > zoneStoreBytes {
		dropHeldLocked(0)
	}
	zoneStore.held = append(zoneStore.held, b)
	zoneStore.bytes += b.size()
}

// dropHeldLocked removes held[i], zeroing the vacated slot so the store
// keeps no reference to a buffer it no longer holds. The caller holds
// the store's lock.
func dropHeldLocked(i int) {
	h := zoneStore.held
	zoneStore.bytes -= h[i].size()
	copy(h[i:], h[i+1:])
	h[len(h)-1] = zoneBuf{}
	zoneStore.held = h[:len(h)-1]
}

// initPlanes writes the initial state of the L planes [l0, l1):
// freestream, with a smooth density/pressure perturbation of relative
// amplitude amp centered in the zone superimposed on the interior
// points — a disturbance for the solver to damp out. Velocity is left at
// freestream so the state stays physical for any |amp| < 1. Every point
// is computed on its own, so any split over L planes writes the serial
// result bit for bit.
func (zs *ZoneState) initPlanes(fs euler.Prim, amp float64, l0, l1 int) {
	z := zs.Zone
	u := fs.Cons()
	cj, ck, cl := float64(z.JMax-1)/2, float64(z.KMax-1)/2, float64(z.LMax-1)/2
	// Gaussian with width a fifth of the smallest dimension.
	w := float64(min(z.JMax, z.KMax, z.LMax)-1) / 5
	if w < 1 {
		w = 1
	}
	for l := l0; l < l1; l++ {
		for k := 0; k < z.KMax; k++ {
			pulse := amp != 0 && l > 0 && l < z.LMax-1 && k > 0 && k < z.KMax-1
			for j := 0; j < z.JMax; j++ {
				if !pulse || j == 0 || j == z.JMax-1 {
					zs.Q.SetPoint(j, k, l, u[:])
					continue
				}
				dj, dk, dl := float64(j)-cj, float64(k)-ck, float64(l)-cl
				r2 := (dj*dj + dk*dk + dl*dl) / (w * w)
				g := amp * math.Exp(-r2)
				p := euler.Prim{
					Rho: fs.Rho * (1 + g),
					U:   fs.U, V: fs.V, W: fs.W,
					P: fs.P * (1 + g),
				}
				c := p.Cons()
				zs.Q.SetPoint(j, k, l, c[:])
			}
		}
	}
}

// faceOf returns the face a boundary point belongs to; when the point
// lies on several faces (edges and corners), the face latest in Face
// order wins, making the per-point treatment deterministic and
// identical for every code path. Interior points return -1.
func faceOf(z *grid.Zone, j, k, l int) Face {
	f := Face(-1)
	if j == 0 {
		f = FaceJMin
	}
	if j == z.JMax-1 {
		f = FaceJMax
	}
	if k == 0 {
		f = FaceKMin
	}
	if k == z.KMax-1 {
		f = FaceKMax
	}
	if l == 0 {
		f = FaceLMin
	}
	if l == z.LMax-1 {
		f = FaceLMax
	}
	return f
}

// boundary is a Config's boundary treatment resolved once for a pass
// over many points: each face's effective kind (its FaceBC entry, else
// the default BC) and the freestream conserved vector.
type boundary struct {
	kind [numFaces]BCKind
	free linalg.Vec5
}

func (cfg *Config) boundary() (b boundary) {
	for f := range b.kind {
		b.kind[f] = cfg.BC
		if k, ok := cfg.FaceBC[Face(f)]; ok {
			b.kind[f] = k
		}
	}
	b.free = cfg.Freestream.Cons()
	return b
}

// applyBCPoint computes and stores the boundary value at one face
// point. It is the single source of truth for boundary values: every
// solver variant's boundary pass, serial or split, is applyBCPlanes over
// it, so boundary treatment can never diverge between code paths.
func (zs *ZoneState) applyBCPoint(bc *boundary, j, k, l int) {
	z := zs.Zone
	f := faceOf(z, j, k, l) // −1 in the interior, which applyBCPlanes never passes
	kind := bc.kind[f]
	if kind == BCFreestream {
		zs.Q.SetPoint(j, k, l, bc.free[:])
		return
	}
	// The wall and extrapolation kinds start from the nearest interior point.
	var buf [euler.NC]float64
	zs.Q.Point(clampInterior(j, z.JMax), clampInterior(k, z.KMax), clampInterior(l, z.LMax), buf[:])
	switch kind {
	case BCExtrapolate:
	case BCSlipWall:
		// Remove the face-normal momentum and its kinetic energy.
		n := 1 + int(f)/2 // momentum component index for the face normal
		mn := buf[n]
		buf[4] -= 0.5 * mn * mn / buf[0]
		buf[n] = 0
	case BCNoSlipWall:
		buf[4] -= 0.5 * (buf[1]*buf[1] + buf[2]*buf[2] + buf[3]*buf[3]) / buf[0]
		buf[1], buf[2], buf[3] = 0, 0, 0
	default:
		panic(fmt.Sprintf("f3d: bad BC kind %d", int(kind)))
	}
	zs.Q.SetPoint(j, k, l, buf[:])
}

// applyBCPlanes refreshes the boundary points of the L planes [l0, l1)
// according to the config, visiting each exactly once, in storage order.
// The work per face is O(face points) — the cheap boundary loops the
// paper declines to parallelize. The step's boundary phase is this pass
// over all planes, whole or split over L.
func (zs *ZoneState) applyBCPlanes(cfg *Config, l0, l1 int) {
	bc := cfg.boundary()
	z := zs.Zone
	for l := l0; l < l1; l++ {
		for k := 0; k < z.KMax; k++ {
			for j := 0; j < z.JMax; j++ {
				if j == 0 || j == z.JMax-1 || k == 0 || k == z.KMax-1 || l == 0 || l == z.LMax-1 {
					zs.applyBCPoint(&bc, j, k, l)
				}
			}
		}
	}
}

// residualSumSq returns the sum of squares of the stored right-hand
// side over the interior points of the zone and the interior point
// count, computed in a fixed serial order — J fastest, then components —
// so the value is identical for every solver variant and team size. R is
// read in place, one interior J run at a time (the VectorSolver's
// component-major R is reordered into a point-major copy first).
func (zs *ZoneState) residualSumSq() (sumsq float64, n int) {
	z, r := zs.Zone, &zs.R
	if r.Layout != grid.PointMajor {
		pm := grid.NewStateField(z, euler.NC, grid.PointMajor)
		pm.CopyFrom(r)
		r = &pm
	}
	for l := 1; l < z.LMax-1; l++ {
		for k := 1; k < z.KMax-1; k++ {
			off := z.Index(1, k, l)
			run := r.Vec[off : off+z.JMax-2]
			for i := range run {
				p := &run[i]
				for c := 0; c < euler.NC; c++ {
					sumsq += p[c] * p[c]
				}
			}
		}
	}
	return sumsq, (z.JMax - 2) * (z.KMax - 2) * (z.LMax - 2)
}

// StepStats reports what one time step did.
type StepStats struct {
	// Residual is the RMS over all interior points (all zones) of the
	// explicit right-hand side before the implicit sweeps — the quantity
	// whose decay measures convergence to steady state.
	Residual float64
	// MaxDelta is the largest absolute solution update applied.
	MaxDelta float64
	// Flops estimates the floating-point operations performed.
	Flops float64
}

// Solver is the interface both code variants implement.
type Solver interface {
	// Step advances the solution one time step and reports statistics.
	Step() StepStats
	// Zones exposes the per-zone solution state.
	Zones() []*ZoneState
	// Config returns the run configuration.
	Config() *Config
}

// MaxPointwiseDiff returns the largest absolute difference between the
// conserved fields of two solvers with identical cases, for
// variant-equivalence tests.
func MaxPointwiseDiff(a, b Solver) float64 {
	za, zb := a.Zones(), b.Zones()
	if len(za) != len(zb) {
		panic("f3d: MaxPointwiseDiff zone count mismatch")
	}
	maxd := 0.0
	var pa, pb [euler.NC]float64
	for i := range za {
		zza, zzb := za[i], zb[i]
		if zza.Zone.Points() != zzb.Zone.Points() {
			panic("f3d: MaxPointwiseDiff zone shape mismatch")
		}
		z := zza.Zone
		for l := 0; l < z.LMax; l++ {
			for k := 0; k < z.KMax; k++ {
				for j := 0; j < z.JMax; j++ {
					zza.Q.Point(j, k, l, pa[:])
					zzb.Q.Point(j, k, l, pb[:])
					for c := 0; c < euler.NC; c++ {
						if d := math.Abs(pa[c] - pb[c]); d > maxd {
							maxd = d
						}
					}
				}
			}
		}
	}
	return maxd
}

// ValidatePulse rejects an amplitude InitPulse cannot start from: at
// amp <= -1 the pulse centre's density rho*(1+amp) is not positive and
// the solver fails on its first step. NaN and ±Inf are rejected too.
// Large finite amplitudes pass; one too large for the scheme diverges
// within a few steps, which the solver reports when it happens.
func ValidatePulse(amp float64) error {
	if !(amp > -1 && amp <= math.MaxFloat64) {
		return fmt.Errorf("f3d: pulse amplitude %v must be finite and > -1 (the pulse centre's density rho*(1+amp) must stay positive)", amp)
	}
	return nil
}

// InitUniform initializes every zone of the solver to freestream and
// applies boundary conditions.
func InitUniform(s Solver) { InitPulse(s, 0) }

// InitPulse initializes to freestream plus a centered density/pressure
// pulse of relative amplitude amp in every zone, then applies boundary
// conditions. On a solver with a team (CacheSolver, BlockSolver) each
// zone is one region split over L planes, a barrier between the state
// and the boundary pass: a served job's setup runs on its whole grant
// and is the region that starts its helpers. Every boundary value reads
// only interior points, so the result is the serial one bit for bit.
func InitPulse(s Solver, amp float64) {
	cfg := s.Config()
	var team *parloop.Team
	if ts, ok := s.(interface{ Team() *parloop.Team }); ok {
		team = ts.Team()
	}
	for _, zs := range s.Zones() {
		n := zs.Zone.LMax
		runGroup(team, []phase{
			{0, n, func(_, lo, hi int) { zs.initPlanes(cfg.Freestream, amp, lo, hi) }, nil},
			{0, n, func(_, lo, hi int) { zs.applyBCPlanes(cfg, lo, hi) }, nil},
		}, []bool{true, true})
	}
}
