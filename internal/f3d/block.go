package f3d

import (
	"fmt"

	"repro/internal/euler"
	"repro/internal/linalg"
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
type BlockSolver struct{ stepCore }

// blockScratch is the block sweeps' share of a worker's working set
// (cacheScratch.blk): block bands beside the pencil. Still pencil-sized
// — the block scheme is cache-tuned too; it is the arithmetic, not the
// memory shape, that costs more.
type blockScratch struct {
	jac []linalg.Mat5
	ba  []linalg.Mat5
	bb  []linalg.Mat5
	bc  []linalg.Mat5
	d   []linalg.Vec5
	ws  *linalg.BlockTridiagWorkspace
}

func newBlockScratch(nmax int) *cacheScratch {
	sc := newCacheScratch(nmax, &tunedKernelSet)
	sc.blk = &blockScratch{
		jac: make([]linalg.Mat5, nmax),
		ba:  make([]linalg.Mat5, nmax),
		bb:  make([]linalg.Mat5, nmax),
		bc:  make([]linalg.Mat5, nmax),
		d:   make([]linalg.Vec5, nmax),
		ws:  linalg.NewBlockTridiagWorkspace(nmax),
	}
	return sc
}

// NewBlockSolver builds the block-implicit solver. It runs the same
// step driver as CacheSolver — every StepShape, phase span and Remote
// link included — with the block sweeps in place of the diagonalized
// ones. ZoneTeams is not supported.
func NewBlockSolver(cfg Config, opts CacheOptions) (*BlockSolver, error) {
	if cfg.ImplicitDissip4 {
		return nil, fmt.Errorf("f3d: BlockSolver does not support ImplicitDissip4 (block-tridiagonal factors)")
	}
	if len(opts.ZoneTeams) > 0 {
		return nil, fmt.Errorf("f3d: BlockSolver does not support ZoneTeams")
	}
	core, err := newStepCore(cfg, opts, tunedKernelSet.points, newBlockScratch)
	if err != nil {
		return nil, err
	}
	return &BlockSolver{core}, nil
}

// Step implements Solver.
func (s *BlockSolver) Step() StepStats {
	s.begin()
	for zi := range s.zones {
		s.stepZone(zi, s.team, s.scratch, s.blockSweepJK, s.blockSweepLUpdate)
	}
	// The block factors cost roughly 5x the diagonalized sweeps per
	// point (5×5 LU + block multiplies per row); keep the RHS estimate
	// and scale the sweep share.
	return s.finish(flopsRHSPerPoint + 3*5*flopsSweepPerPoint + flopsUpdatePerPoint)
}

func (s *BlockSolver) blockSweepJK(zs *ZoneState, sc *cacheScratch, l0, l1 int) {
	z := zs.Zone
	nJ, nK := z.JMax, z.KMax
	for l := l0; l < l1; l++ {
		for k := 1; k <= z.KMax-2; k++ {
			loadLine(&zs.Q, euler.X, k, l, sc.p.q, nJ)
			loadLine(&zs.R, euler.X, k, l, sc.p.r, nJ)
			s.blockSweepLine(sc, nJ, euler.X, z.DJ, zs.geom[euler.X])
			storeLineInterior(&zs.R, euler.X, k, l, sc.p.r, nJ)
		}
		for j := 1; j <= z.JMax-2; j++ {
			loadLine(&zs.Q, euler.Y, j, l, sc.p.q, nK)
			loadLine(&zs.R, euler.Y, j, l, sc.p.r, nK)
			s.blockSweepLine(sc, nK, euler.Y, z.DK, zs.geom[euler.Y])
			storeLineInterior(&zs.R, euler.Y, j, l, sc.p.r, nK)
		}
	}
}

func (s *BlockSolver) blockSweepLUpdate(zs *ZoneState, sc *cacheScratch, k0, k1 int) {
	z := zs.Zone
	nL := z.LMax
	for k := k0; k < k1; k++ {
		for j := 1; j <= z.JMax-2; j++ {
			loadLine(&zs.Q, euler.Z, j, k, sc.p.q, nL)
			loadLine(&zs.R, euler.Z, j, k, sc.p.r, nL)
			s.blockSweepLine(sc, nL, euler.Z, z.DL, zs.geom[euler.Z])
			sc.maxDelta = addLineInterior(&zs.Q, euler.Z, j, k, sc.p.r, nL, sc.maxDelta)
		}
	}
}

// blockSweepLine applies one direction's exact implicit factor to one
// line: solve (I + ν δ(A·) − μ∇Δ) Δ = r as a block-tridiagonal system.
// g is the metric of the swept axis (nil for uniform).
func (s *BlockSolver) blockSweepLine(sc *cacheScratch, n int, ax euler.Axis, h float64, g *axisGeom) {
	cfg, blk := &s.cfg, sc.blk
	ni := n - 2
	if ni < 1 {
		return
	}
	nu := cfg.Dt / (2 * h)
	muScale := cfg.EpsI * cfg.Dt / h
	q := sc.p.q
	r := sc.p.r
	viscous := cfg.viscRe() > 0 && ax == euler.Z
	// Jacobians and spectral radii at interior points.
	for i := 1; i <= ni; i++ {
		blk.jac[i] = euler.Jacobian(ax, q[i])
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
			a = blk.jac[i-1]
			for e := range a {
				a[e] *= -nui
			}
		}
		if i < ni {
			c = blk.jac[i+1]
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
		blk.ba[i-1], blk.bb[i-1], blk.bc[i-1] = a, b, c
		blk.d[i-1] = r[i]
	}
	if err := linalg.SolveBlockTridiag(blk.ws, blk.ba[:ni], blk.bb[:ni], blk.bc[:ni], blk.d[:ni]); err != nil {
		// The factored operator is diagonally dominant for stable time
		// steps; a singular system indicates a non-physical state and is
		// a solver bug.
		panic(fmt.Sprintf("f3d: block sweep failed: %v", err))
	}
	for i := 1; i <= ni; i++ {
		r[i] = blk.d[i-1]
	}
	r[0] = linalg.Vec5{}
	r[n-1] = linalg.Vec5{}
}
