package f3d

import (
	"fmt"
	"math"

	"repro/internal/euler"
	"repro/internal/grid"
	"repro/internal/linalg"
	"repro/internal/parloop"
)

// BlockSolver is the reference, non-diagonalized Beam–Warming solver:
// each direction's implicit factor keeps the full 5×5 flux Jacobian
// and is solved as a block-tridiagonal system. The diagonalized scheme
// used by CacheSolver/VectorSolver approximates this operator with
// scalar systems in characteristic variables; the block solver is the
// operator it approximates.
//
// Both schemes share the explicit right-hand side, so they converge to
// the same steady states; the time paths differ. The block solve costs
// several times more per point (one 5×5 LU plus block multiplies per
// row versus five scalar Thomas rows) — the classic trade the
// vector-era codes resolved in favor of diagonalization, measured by
// BenchmarkBlockVsDiagonal.
type BlockSolver struct {
	cfg       Config
	zones     []*ZoneState
	team      *parloop.Team
	ownedTeam bool
	shape     StepShape
	scratch   []*blockScratch
	ifbufs    []ifaceBuffer
	steps     int
}

// blockScratch is one worker's working set for the block sweeps: the
// pencil state plus block bands. Still pencil-sized — the block scheme
// is cache-tuned too; it is the arithmetic, not the memory shape, that
// costs more.
type blockScratch struct {
	cs *cacheScratch // shared RHS scratch
	// geom is the metric of the axis being swept (nil for uniform);
	// set by the sweep drivers before each blockSweepLine call.
	geom *axisGeom
	jac  []linalg.Mat5
	ba   []linalg.Mat5
	bb   []linalg.Mat5
	bc   []linalg.Mat5
	d    []linalg.Vec5
	ws   *linalg.BlockTridiagWorkspace
}

func newBlockScratch(nmax int) *blockScratch {
	return &blockScratch{
		cs:  newCacheScratch(nmax, &tunedKernelSet),
		jac: make([]linalg.Mat5, nmax),
		ba:  make([]linalg.Mat5, nmax),
		bb:  make([]linalg.Mat5, nmax),
		bc:  make([]linalg.Mat5, nmax),
		d:   make([]linalg.Vec5, nmax),
		ws:  linalg.NewBlockTridiagWorkspace(nmax),
	}
}

// NewBlockSolver builds the block-implicit solver. It reads opts.Shape
// once, here (nil: DefaultShape), and executes only the seed region
// structure — RHS as one region, one region per sweep, serial boundary
// conditions; a shape asking for anything else is an error (the block
// solver exists for numerical comparison, not synchronization
// ablations).
func NewBlockSolver(cfg Config, opts CacheOptions) (*BlockSolver, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	shape := opts.shapeCell().Load()
	if shape.Merged || shape.FissionRHS || shape.BC || shape.RHSJK != shape.RHSL {
		return nil, fmt.Errorf("f3d: BlockSolver cannot execute shape %+v (no merged, fissioned, half-parallel RHS or parallel BC regions)", shape)
	}
	if cfg.ImplicitDissip4 {
		return nil, fmt.Errorf("f3d: BlockSolver does not support ImplicitDissip4 (block-tridiagonal factors)")
	}
	s := &BlockSolver{cfg: cfg, team: opts.Team, shape: shape}
	if s.team == nil {
		s.team = parloop.NewTeam(1)
		s.ownedTeam = true
	}
	for i := range cfg.Case.Zones {
		s.zones = append(s.zones, newZoneState(&cfg.Case.Zones[i], grid.PointMajor, tunedKernelSet.points))
	}
	s.scratch = make([]*blockScratch, s.team.Workers())
	for i := range s.scratch {
		s.scratch[i] = newBlockScratch(cfg.Case.MaxDim())
	}
	if len(cfg.Interfaces) > 0 {
		s.ifbufs = newIfaceBuffers(cfg.Case, cfg.Interfaces)
	}
	return s, nil
}

// Close releases the solver's private team (if it created one).
func (s *BlockSolver) Close() {
	if s.ownedTeam {
		s.team.Close()
	}
}

// Zones implements Solver.
func (s *BlockSolver) Zones() []*ZoneState { return s.zones }

// Config implements Solver.
func (s *BlockSolver) Config() *Config { return &s.cfg }

// Steps returns the number of time steps taken.
func (s *BlockSolver) Steps() int { return s.steps }

// Step implements Solver.
func (s *BlockSolver) Step() StepStats {
	var stats StepStats
	sumsq, n := 0.0, 0
	for i := range s.scratch {
		s.scratch[i].cs.maxDelta = 0
	}
	if s.ifbufs != nil {
		captureInterfaces(s.zones, s.cfg.Interfaces, s.ifbufs)
	}
	for zi := range s.zones {
		zss, zn := s.stepZone(zi)
		sumsq += zss
		n += zn
	}
	for _, sc := range s.scratch {
		if sc.cs.maxDelta > stats.MaxDelta {
			stats.MaxDelta = sc.cs.maxDelta
		}
	}
	if n > 0 {
		stats.Residual = math.Sqrt(sumsq / float64(n))
	}
	// The block factors cost roughly 5x the diagonalized sweeps per
	// point (5×5 LU + block multiplies per row); keep the RHS estimate
	// and scale the sweep share. n counts the interior points.
	stats.Flops = float64(n) * (flopsRHSPerPoint + 3*5*flopsSweepPerPoint + flopsUpdatePerPoint)
	s.steps++
	return stats
}

func (s *BlockSolver) stepZone(zi int) (sumsq float64, n int) {
	zs := s.zones[zi]
	z := zs.Zone
	nl, nk := z.LMax-2, z.KMax-2

	zs.applyBC(&s.cfg)
	if s.ifbufs != nil {
		applyInterfacesTo(zi, s.zones, s.cfg.Interfaces, s.ifbufs)
	}

	if s.shape.RHSJK && s.team.Workers() > 1 {
		s.team.Region(func(ctx *parloop.WorkerCtx) {
			sc := s.scratch[ctx.ID()].cs
			lo, hi := ctx.Range(nl)
			rhsPassJK(zs, &s.cfg, sc, 1+lo, 1+hi)
			ctx.Barrier()
			lo, hi = ctx.Range(nk)
			rhsPassL(zs, &s.cfg, sc, 1+lo, 1+hi)
		})
	} else {
		sc := s.scratch[0].cs
		rhsPassJK(zs, &s.cfg, sc, 1, 1+nl)
		rhsPassL(zs, &s.cfg, sc, 1, 1+nk)
	}

	sumsq, n = zs.residualSumSq()

	if s.shape.SweepJK && s.team.Workers() > 1 {
		s.team.Region(func(ctx *parloop.WorkerCtx) {
			lo, hi := ctx.Range(nl)
			s.blockSweepJK(zs, s.scratch[ctx.ID()], 1+lo, 1+hi)
		})
	} else {
		s.blockSweepJK(zs, s.scratch[0], 1, 1+nl)
	}
	if s.shape.SweepL && s.team.Workers() > 1 {
		s.team.Region(func(ctx *parloop.WorkerCtx) {
			lo, hi := ctx.Range(nk)
			s.blockSweepLUpdate(zs, s.scratch[ctx.ID()], 1+lo, 1+hi)
		})
	} else {
		s.blockSweepLUpdate(zs, s.scratch[0], 1, 1+nk)
	}
	return sumsq, n
}

func (s *BlockSolver) blockSweepJK(zs *ZoneState, sc *blockScratch, l0, l1 int) {
	z := zs.Zone
	nJ, nK := z.JMax, z.KMax
	for l := l0; l < l1; l++ {
		for k := 1; k <= z.KMax-2; k++ {
			loadLine(&zs.Q, euler.X, k, l, sc.cs.p.q, nJ)
			loadLine(&zs.R, euler.X, k, l, sc.cs.p.r, nJ)
			sc.geom = zs.geom[euler.X]
			s.blockSweepLine(sc, nJ, euler.X, z.DJ)
			storeLineInterior(&zs.R, euler.X, k, l, sc.cs.p.r, nJ)
		}
		for j := 1; j <= z.JMax-2; j++ {
			loadLine(&zs.Q, euler.Y, j, l, sc.cs.p.q, nK)
			loadLine(&zs.R, euler.Y, j, l, sc.cs.p.r, nK)
			sc.geom = zs.geom[euler.Y]
			s.blockSweepLine(sc, nK, euler.Y, z.DK)
			storeLineInterior(&zs.R, euler.Y, j, l, sc.cs.p.r, nK)
		}
	}
}

func (s *BlockSolver) blockSweepLUpdate(zs *ZoneState, sc *blockScratch, k0, k1 int) {
	z := zs.Zone
	nL := z.LMax
	for k := k0; k < k1; k++ {
		for j := 1; j <= z.JMax-2; j++ {
			loadLine(&zs.Q, euler.Z, j, k, sc.cs.p.q, nL)
			loadLine(&zs.R, euler.Z, j, k, sc.cs.p.r, nL)
			sc.geom = zs.geom[euler.Z]
			s.blockSweepLine(sc, nL, euler.Z, z.DL)
			sc.cs.applyUpdate(nL)
			storeLineInterior(&zs.Q, euler.Z, j, k, sc.cs.p.q, nL)
		}
	}
}

// blockSweepLine applies one direction's exact implicit factor to one
// line: solve (I + ν δ(A·) − μ∇Δ) Δ = r as a block-tridiagonal system.
func (s *BlockSolver) blockSweepLine(sc *blockScratch, n int, ax euler.Axis, h float64) {
	// sc.geom is set by the caller for the sweep axis.
	cfg := &s.cfg
	ni := n - 2
	if ni < 1 {
		return
	}
	nu := cfg.Dt / (2 * h)
	muScale := cfg.EpsI * cfg.Dt / h
	q := sc.cs.p.q
	r := sc.cs.p.r
	viscous := cfg.viscRe() > 0 && ax == euler.Z
	g := sc.geom
	// Jacobians and spectral radii at interior points.
	for i := 1; i <= ni; i++ {
		sc.jac[i] = euler.Jacobian(ax, q[i])
	}
	for i := 1; i <= ni; i++ {
		sig := euler.SpectralRadius(ax, q[i])
		nui, mu := nu, muScale*sig
		if g != nil {
			nui = cfg.Dt * g.inv2h[i]
			mu = cfg.EpsI * cfg.Dt * g.invh[i] * sig
		}
		// Viscous augmentation: diagonal entries db on b, da/dc on the
		// off-diagonal blocks.
		var vda, vdb, vdc float64
		if viscous {
			if g != nil {
				vda, vdb, vdc = viscousImplicitRowVar(cfg.Dt, cfg.Re, q[i][0], g.invdm[i-1], g.invdm[i], g.invh[i])
			} else {
				vda, vdb, vdc = viscousImplicitRow(cfg.Dt, h, cfg.Re, q[i][0])
			}
		}
		// Row i (0-based row i-1): a = −ν A_{i−1} − μI + vda·I,
		// b = (1 + 2μ + vdb) I, c = ν A_{i+1} − μI + vdc·I.
		var a, b, c linalg.Mat5
		if i > 1 {
			a = sc.jac[i-1]
			for e := range a {
				a[e] *= -nui
			}
		}
		if i < ni {
			c = sc.jac[i+1]
			for e := range c {
				c[e] *= nui
			}
		}
		for d := 0; d < linalg.BlockSize; d++ {
			idx := d*linalg.BlockSize + d
			a[idx] += -mu + vda
			c[idx] += -mu + vdc
			b[idx] = 1 + 2*mu + vdb
		}
		sc.ba[i-1], sc.bb[i-1], sc.bc[i-1] = a, b, c
		sc.d[i-1] = r[i]
	}
	if err := linalg.SolveBlockTridiag(sc.ws, sc.ba[:ni], sc.bb[:ni], sc.bc[:ni], sc.d[:ni]); err != nil {
		// The factored operator is diagonally dominant for stable time
		// steps; a singular system indicates a non-physical state and is
		// a solver bug.
		panic(fmt.Sprintf("f3d: block sweep failed: %v", err))
	}
	for i := 1; i <= ni; i++ {
		r[i] = sc.d[i-1]
	}
	r[0] = linalg.Vec5{}
	r[n-1] = linalg.Vec5{}
}
