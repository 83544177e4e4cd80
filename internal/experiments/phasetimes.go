package experiments

import (
	"fmt"
	"time"

	"repro/internal/neat"
)

// PhaseTiming is one row of the phase-times artifact: a full opt-NEAT
// run under one execution shape, with the per-phase wall clock and the
// result shape (which must be identical across rows — parallelism is
// an execution knob, not a result knob).
type PhaseTiming struct {
	Config   string  `json:"config"`
	Workers  int     `json:"workers"`
	Phase1Ms float64 `json:"phase1_ms"`
	Phase2Ms float64 `json:"phase2_ms"`
	Phase3Ms float64 `json:"phase3_ms"`
	TotalMs  float64 `json:"total_ms"`
	Flows    int     `json:"flows"`
	Clusters int     `json:"clusters"`
}

// PhaseTimesReport is the JSON document neatbench -phasejson emits:
// one small fixed scenario (the ATL500 workload at the environment's
// scale) run through every execution shape of the plan engine. CI
// uploads it as BENCH_phase_times.json so the per-phase perf
// trajectory accumulates across commits.
type PhaseTimesReport struct {
	Scale        float64       `json:"scale"`
	Region       string        `json:"region"`
	Trajectories int           `json:"trajectories"`
	Segments     int           `json:"segments"`
	Fragments    int           `json:"fragments"`
	Runs         []PhaseTiming `json:"runs"`
}

// phaseTimeShapes are the execution shapes PhaseTimes benchmarks: the
// classic serial plan and RunParallel with all-core workers.
var phaseTimeShapes = []struct {
	name    string
	workers int
}{
	{"serial", 0},
	{"parallel", -1},
}

// PhaseTimes runs the fixed scenario and collects the report. It
// fails if any execution shape changes the clustering output — the
// timings of divergent runs would not be comparable.
func PhaseTimes(e *Env) (*PhaseTimesReport, error) {
	g, err := e.Graph("ATL")
	if err != nil {
		return nil, err
	}
	ds, err := e.Dataset("ATL", 500)
	if err != nil {
		return nil, err
	}
	rep := &PhaseTimesReport{
		Scale:        e.Scale(),
		Region:       "ATL",
		Trajectories: len(ds.Trajectories),
		Segments:     g.NumSegments(),
	}
	p := neat.NewPipeline(g)
	refFlows, refClusters := -1, -1
	for _, shape := range phaseTimeShapes {
		cfg := e.NEATConfig()
		var res *neat.Result
		if shape.workers != 0 {
			res, err = p.RunParallel(ds, cfg, neat.LevelOpt, shape.workers)
		} else {
			res, err = p.Run(ds, cfg, neat.LevelOpt)
		}
		if err != nil {
			return nil, fmt.Errorf("experiments: phase-times %s: %w", shape.name, err)
		}
		if refFlows < 0 {
			refFlows, refClusters = len(res.Flows), len(res.Clusters)
			rep.Fragments = res.NumFragments
		} else if len(res.Flows) != refFlows || len(res.Clusters) != refClusters {
			return nil, fmt.Errorf("experiments: phase-times %s: output diverges (%d/%d flows, %d/%d clusters)",
				shape.name, len(res.Flows), refFlows, len(res.Clusters), refClusters)
		}
		rep.Runs = append(rep.Runs, PhaseTiming{
			Config:   shape.name,
			Workers:  shape.workers,
			Phase1Ms: ms(res.Timing.Phase1),
			Phase2Ms: ms(res.Timing.Phase2),
			Phase3Ms: ms(res.Timing.Phase3),
			TotalMs:  ms(res.Timing.Total()),
			Flows:    len(res.Flows),
			Clusters: len(res.Clusters),
		})
	}
	return rep, nil
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
