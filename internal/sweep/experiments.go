package sweep

import (
	"fmt"
	"io"
	"slices"
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

// experiment adapts a typed sweep to the catalogue: its Result is the
// sweep's report, and a failed run yields a nil Result.
func experiment[R interface{ report() report }](name string, run func(Options) (R, error)) Experiment {
	return Experiment{Name: name, Run: func(o Options) (Result, error) {
		r, err := run(o)
		if err != nil {
			return nil, err
		}
		return r.report(), nil
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

// report is the one spec of a result's two outputs: the aligned
// terminal table (title, the titled columns, then footer) and the CSV
// (each section's named columns under their own header row).
type report struct {
	title    string
	sections []section
	footer   string // headline lines printed under the table
}

// section is n rows read off the result by its columns. At most one
// section of a report has titled columns.
type section struct {
	n    int
	cols []column
}

// column is one column of a section. An empty title keeps it out of
// the table, an empty csv name out of the CSV. The table formats the
// cell with format, or floats with %.4g and the rest with %v; the CSV
// writes floats with %g and strings with their commas made ';'.
type column struct {
	csv, title, format string
	cell               func(i int) any
}

// orDash is a column format: %.4g for a positive float, else "-".
const orDash = "-"

func (c column) text(v any, csv bool) string {
	f, isFloat := v.(float64)
	s, isString := v.(string)
	switch {
	case csv && isFloat:
		return fmt.Sprintf("%g", f)
	case csv && isString:
		return strings.ReplaceAll(s, ",", ";")
	case csv:
	case c.format == orDash && !(f > 0):
		return "-"
	case c.format != "" && c.format != orDash:
		return fmt.Sprintf(c.format, v)
	case isFloat:
		return fmt.Sprintf("%.4g", f)
	}
	return fmt.Sprint(v)
}

// cells returns the section's header row and rows in one output, or
// nil if none of its columns is in that output.
func (s section) cells(csv bool) [][]string {
	var out [][]string
	for i := -1; i < s.n; i++ {
		var row []string
		for _, c := range s.cols {
			head := c.title
			if csv {
				head = c.csv
			}
			switch {
			case head == "":
			case i < 0:
				row = append(row, head)
			default:
				row = append(row, c.text(c.cell(i), csv))
			}
		}
		if row == nil {
			return nil
		}
		out = append(out, row)
	}
	return out
}

// Render prints the table with every cell left-aligned in its column.
func (r report) Render() string {
	var rows [][]string
	for _, s := range r.sections {
		rows = append(rows, s.cells(false)...)
	}
	widths := make([]int, len(rows[0]))
	for _, row := range rows {
		for i, cell := range row {
			widths[i] = max(widths[i], len(cell))
		}
	}
	sep := make([]string, len(widths))
	for i, w := range widths {
		sep[i] = strings.Repeat("-", w)
	}
	var b strings.Builder
	b.WriteString(r.title + "\n")
	for _, row := range slices.Insert(rows, 1, sep) {
		for i, cell := range row {
			fmt.Fprintf(&b, "%-*s", widths[i]+2, cell)
		}
		b.WriteString("\n")
	}
	return b.String() + r.footer
}

// WriteCSV writes every section's named columns.
func (r report) WriteCSV(w io.Writer) error {
	var b strings.Builder
	for _, s := range r.sections {
		for _, row := range s.cells(true) {
			b.WriteString(strings.Join(row, ",") + "\n")
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
