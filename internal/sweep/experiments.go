package sweep

import (
	"fmt"
	"io"
	"strings"
)

// Result is what every experiment returns: a rendered table for the
// terminal and plot-ready CSV rows.
type Result interface {
	Render() string
	WriteCSV(io.Writer) error
}

// Experiment is one table, figure or sweep of the evaluation.
type Experiment struct {
	Name string
	Run  func(Options) (Result, error)
}

// Experiments is the one list of experiments, in suite order: the
// paper's Figures 2, 3, 5a, 5b, 6 and Table II, then the extensions.
// cmd/experiments, the façade's Reproduce and the sequential-vs-parallel
// determinism test all read it.
var Experiments = []Experiment{
	experiment("fig2", Figure2),
	experiment("fig3", Figure3),
	experiment("fig5a", Figure5a),
	experiment("fig5b", Figure5b),
	experiment("fig6", Figure6),
	experiment("table2", TableII),
	experiment("faultrec", FaultRecovery),
	experiment("collective", Collective),
	experiment("replicate", ReplicateSweep),
	experiment("churn", ChurnSweep),
	experiment("policy", PolicySweep),
	experiment("topology", TopologySweep),
	experiment("scheduler", SchedulerSweep),
	experiment("openworld", OpenWorldSweep),
}

// experiment adapts a typed sweep to the catalogue, so a failed run
// yields a nil Result rather than a typed nil pointer.
func experiment[R Result](name string, run func(Options) (R, error)) Experiment {
	return Experiment{Name: name, Run: func(o Options) (Result, error) {
		r, err := run(o)
		if err != nil {
			return nil, err
		}
		return r, nil
	}}
}

// ExperimentNames lists the catalogue's names in suite order.
func ExperimentNames() []string {
	names := make([]string, len(Experiments))
	for i, e := range Experiments {
		names[i] = e.Name
	}
	return names
}

// FindExperiment resolves name case-insensitively.
func FindExperiment(name string) (Experiment, error) {
	for _, e := range Experiments {
		if strings.EqualFold(name, e.Name) {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("unknown experiment %q (want one of %s)",
		name, strings.Join(ExperimentNames(), ", "))
}
