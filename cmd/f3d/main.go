// Command f3d runs the CFD solver reproduction: pick a case, a code
// variant (vector-style original or cache-tuned), a worker count and a
// step count, and it reports the residual history and the performance
// in the paper's metrics (time steps/hour, delivered MFLOPS).
//
// Usage:
//
//	f3d [-case 1m|59m|single] [-scale F] [-dims JxKxL]
//	    [-variant cache|vector|block] [-workers N] [-merged] [-parbc]
//	    [-mlp] [-zonal] [-viscous] [-re RE] [-stretch BETA] [-dissip4]
//	    [-steps N] [-pulse AMP] [-converge TOL] [-validate] [-profile]
//	    [-save FILE] [-load FILE] [-quiet]
//
// The paper's full-size cases are enormous for a laptop; use -scale to
// run a geometrically similar case (e.g. -case 1m -scale 0.25).
// -pulse must be finite and > -1 (exit 2); a diverged run stops with
// f3d.ErrDiverged, naming the step (exit 1).
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/f3d"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/parloop"
)

func main() {
	caseName := flag.String("case", "1m", "test case: 1m, 59m or single")
	scale := flag.Float64("scale", 0.25, "dimension scale factor for 1m/59m cases")
	dims := flag.String("dims", "33x25x21", "JxKxL dimensions for -case single")
	variant := flag.String("variant", "cache", "code variant: cache, vector or block")
	workers := flag.Int("workers", 1, "parallel workers (cache variant only)")
	merged := flag.Bool("merged", false, "run each zone step in one merged parallel region")
	parbc := flag.Bool("parbc", false, "parallelize boundary-condition loops too")
	steps := flag.Int("steps", 10, "time steps to run")
	pulse := flag.Float64("pulse", 0.05, "initial disturbance amplitude (0 = uniform flow)")
	quiet := flag.Bool("quiet", false, "suppress the per-step residual history")
	zonal := flag.Bool("zonal", false, "couple adjacent zones along J with interface exchange")
	viscous := flag.Bool("viscous", false, "enable thin-layer viscous terms")
	re := flag.Float64("re", 1000, "Reynolds number for -viscous")
	mlp := flag.Bool("mlp", false, "multi-level parallelism: one team of -workers per zone")
	converge := flag.Float64("converge", 0, "run until the residual falls by this factor (overrides -steps)")
	validate := flag.Bool("validate", false, "run the cross-variant validation ladder and exit")
	profileFlag := flag.Bool("profile", false, "print a prof-style per-phase profile after the run (cache and block variants)")
	stretch := flag.Float64("stretch", 0, "tanh wall-clustering factor for the L direction (0 = uniform)")
	dissip4 := flag.Bool("dissip4", false, "use pentadiagonal implicit fourth-difference dissipation (cache variant)")
	saveFile := flag.String("save", "", "write a checkpoint to this file after the run")
	loadFile := flag.String("load", "", "restart from a checkpoint file instead of -pulse initialization")
	hexres := flag.Bool("hexres", false, "print residuals as exact hex floats (for bitwise run-to-run diffs)")
	flag.Parse()

	c, err := buildCase(*caseName, *scale, *dims)
	if err == nil {
		err = f3d.ValidatePulse(*pulse)
	}
	exitOn(err, 2)
	if *stretch > 0 {
		for i := range c.Zones {
			z := &c.Zones[i]
			z.XL = grid.StretchCoords(z.LMax, *stretch)
			// Reuse the stretched zone's minimum spacing for dt estimation.
			sz := grid.StretchedZone(z.Name, z.JMax, z.KMax, z.LMax, 0, 0, *stretch)
			z.DL = sz.DL
		}
	}
	if *zonal {
		c = grid.UnifySpacing(c)
	}
	cfg := f3d.DefaultConfig(c)
	if *zonal {
		for i := 0; i+1 < len(c.Zones); i++ {
			cfg.Interfaces = append(cfg.Interfaces, f3d.Interface{Left: i, Right: i + 1})
		}
	}
	if *viscous {
		cfg.Viscous, cfg.Re = true, *re
	}
	cfg.ImplicitDissip4 = *dissip4

	if *validate {
		rep, err := f3d.CrossValidate(cfg, *steps, max(2, *workers))
		exitOn(err, 1)
		fmt.Print(rep.String())
		if !rep.OK() {
			os.Exit(1)
		}
		return
	}

	var solver f3d.Solver
	// The cache and block variants run the same step driver, so they
	// take the same shape and team(s). -profile attaches one local tracer
	// to the team, or to every -mlp zone team: the profile is the
	// step's phase spans, one per zone and group.
	var opts f3d.CacheOptions
	var prof *obs.Tracer
	if *variant != "vector" {
		shape := f3d.DefaultShape()
		shape.Merged, shape.BC = *merged, *parbc
		opts.Shape = &shape
		var teams []*parloop.Team
		if *mlp {
			for range c.Zones {
				teams = append(teams, parloop.NewTeam(*workers))
			}
			opts.ZoneTeams = teams
		} else if *workers > 1 || *profileFlag {
			opts.Team = parloop.NewTeam(*workers)
			teams = append(teams, opts.Team)
		}
		if *profileFlag {
			prof = obs.NewTracer(profileEvents(*steps, len(c.Zones), *workers), nil)
			prof.Enable()
		}
		for _, tm := range teams {
			defer tm.Close()
			tm.SetTracer(prof, "")
		}
	}
	switch *variant {
	case "cache":
		s, err := f3d.NewCacheSolver(cfg, opts)
		exitOn(err, 1)
		defer s.Close()
		solver = s
	case "vector":
		if *workers > 1 {
			fmt.Fprintln(os.Stderr, "f3d: the vector variant is serial (that is the point); ignoring -workers")
		}
		s, err := f3d.NewVectorSolver(cfg)
		exitOn(err, 1)
		solver = s
	case "block":
		s, err := f3d.NewBlockSolver(cfg, opts)
		exitOn(err, 1)
		defer s.Close()
		solver = s
	default:
		fmt.Fprintf(os.Stderr, "f3d: unknown variant %q\n", *variant)
		os.Exit(2)
	}

	fmt.Printf("case %s: %d zones, %d points (max dim %d), dt=%.3e, variant=%s, workers=%d\n",
		c.Name, len(c.Zones), c.Points(), c.MaxDim(), cfg.Dt, *variant, *workers)
	for _, z := range c.Zones {
		fmt.Printf("  %v\n", z)
	}

	restartSteps := 0
	if *loadFile != "" {
		f, err := os.Open(*loadFile)
		exitOn(err, 1)
		restartSteps, err = f3d.LoadCheckpoint(f, solver)
		f.Close()
		exitOn(err, 1)
		fmt.Printf("restarted from %s at step %d\n", *loadFile, restartSteps)
	} else {
		f3d.InitPulse(solver, *pulse) // pulse 0: uniform flow
	}

	start := time.Now()
	var flops float64
	stepsRun := 0
	if *converge > 0 {
		h, err := f3d.RunToSteady(solver, 1 / *converge, *steps)
		exitOn(err, 1)
		stepsRun = h.Steps()
		flops = h.Flops
		if !*quiet {
			resFmt := "step %4d  residual %.6e\n"
			if *hexres {
				resFmt = "step %4d  residual %x\n"
			}
			for i, r := range h.Residuals {
				fmt.Printf(resFmt, i+1, r)
			}
		}
		fmt.Printf("converged=%v after %d steps (%.1f orders of residual reduction)\n",
			h.Converged, h.Steps(), h.ReductionOrders())
	} else {
		for i := 0; i < *steps; i++ {
			st, err := f3d.TryStep(solver)
			if err != nil {
				exitOn(fmt.Errorf("step %d: %s", i+1, strings.TrimPrefix(err.Error(), prefix)), 1)
			}
			flops += st.Flops
			if !*quiet {
				if *hexres {
					fmt.Printf("step %4d  residual %x  max|dq| %x\n", i+1, st.Residual, st.MaxDelta)
				} else {
					fmt.Printf("step %4d  residual %.6e  max|dq| %.3e\n", i+1, st.Residual, st.MaxDelta)
				}
			}
			stepsRun++
		}
	}
	elapsed := time.Since(start)
	perStep := elapsed / time.Duration(stepsRun)
	fmt.Printf("%d steps in %v (%v/step)\n", stepsRun, elapsed.Round(time.Millisecond), perStep.Round(time.Millisecond))
	fmt.Printf("time steps/hour: %.1f\n", 3600/perStep.Seconds())
	fmt.Printf("delivered MFLOPS (estimated): %.1f\n", flops/elapsed.Seconds()/1e6)
	if team := opts.Team; team != nil && *workers > 1 {
		fmt.Printf("synchronization events: %d (%.1f per step)\n",
			team.SyncEvents(), float64(team.SyncEvents())/float64(stepsRun))
	}
	if prof != nil {
		if d := prof.Dropped(); d > 0 {
			exitOn(fmt.Errorf("-profile: the trace ring lost %d events, so the profile would be truncated", d), 1)
		}
		phases := slices.DeleteFunc(prof.Events(), func(e obs.Event) bool { return e.Kind != obs.KindPhase })
		fmt.Println()
		fmt.Println("per-phase profile (prof-style):")
		fmt.Print(analyze.FormatRanked(analyze.Analyze(phases).Ranked, 12))
	}
	if *saveFile != "" {
		f, err := os.Create(*saveFile)
		exitOn(err, 1)
		err = f3d.SaveCheckpoint(f, solver, restartSteps+stepsRun)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		exitOn(err, 1)
		fmt.Printf("checkpoint written to %s (step %d)\n", *saveFile, restartSteps+stepsRun)
	}
}

// profileEvents sizes the -profile trace ring: a zone step on a team of
// workers emits at most 5 phase spans, 4 regions' begin and end events
// and 6 barrier waits a worker (a merged step with exchange tails).
func profileEvents(steps, zones, workers int) int {
	return steps * zones * (13 + 6*workers)
}

// prefix starts every error line, and already starts the text of the
// f3d package's own errors.
const prefix = "f3d: "

// exitOn ends the run with status code when err is not nil: 2 for a
// bad input, 1 for a run that failed. The line carries one prefix.
func exitOn(err error, code int) {
	if err != nil {
		fmt.Fprintln(os.Stderr, prefix+strings.TrimPrefix(err.Error(), prefix))
		os.Exit(code)
	}
}

func buildCase(name string, scale float64, dims string) (grid.Case, error) {
	switch name {
	case "1m":
		if scale == 1 {
			return grid.Paper1M(), nil
		}
		return grid.Scaled(grid.Paper1M(), scale), nil
	case "59m":
		if scale == 1 {
			return grid.Paper59M(), nil
		}
		return grid.Scaled(grid.Paper59M(), scale), nil
	case "single":
		var j, k, l int
		if _, err := fmt.Sscanf(strings.ToLower(dims), "%dx%dx%d", &j, &k, &l); err != nil {
			return grid.Case{}, fmt.Errorf("bad -dims %q: %v", dims, err)
		}
		return grid.Single(j, k, l), nil
	default:
		return grid.Case{}, fmt.Errorf("unknown case %q", name)
	}
}
