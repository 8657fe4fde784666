// Package experiments regenerates every table and figure in the paper's
// evaluation (Sec. IV). Each experiment returns a Table that renders to
// markdown/CSV; cmd/salam-experiments drives them and bench_test.go wraps
// each in a testing.B benchmark. Scale selects workload sizes: ScaleSmoke
// for tests, ScaleFull for the recorded results in EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"strings"
)

// Scale selects workload sizes.
type Scale int

// Scales.
const (
	ScaleSmoke Scale = iota // fast: CI / go test
	ScaleFull               // the sizes recorded in EXPERIMENTS.md
)

// Table is a rendered experiment result.
type Table struct {
	ID     string // "table1", "fig10", ...
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Note appends a footnote.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Markdown renders the table.
func (t *Table) Markdown() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "### %s — %s\n\n", strings.ToUpper(t.ID[:1])+t.ID[1:], t.Title)
	sb.WriteString("| " + strings.Join(t.Header, " | ") + " |\n")
	sb.WriteString("|" + strings.Repeat("---|", len(t.Header)) + "\n")
	for _, r := range t.Rows {
		sb.WriteString("| " + strings.Join(r, " | ") + " |\n")
	}
	for _, n := range t.Notes {
		sb.WriteString("\n> " + n + "\n")
	}
	return sb.String()
}

// CSV renders comma-separated values.
func (t *Table) CSV() string {
	var sb strings.Builder
	sb.WriteString(strings.Join(t.Header, ",") + "\n")
	for _, r := range t.Rows {
		sb.WriteString(strings.Join(r, ",") + "\n")
	}
	return sb.String()
}

// Runner is one experiment.
type Runner struct {
	ID   string
	Desc string
	Run  func(s Scale) (*Table, error)
}

// AllRunners lists every experiment in paper order.
func AllRunners() []Runner {
	return []Runner{
		{"table1", "Aladdin datapath vs data-dependent execution", Table1},
		{"table2", "Aladdin datapath vs memory design", Table2},
		{"fig4", "Total power breakdown with private SPM", Fig4},
		{"fig10", "Performance validation vs HLS", Fig10},
		{"fig11", "Power validation vs synthesis reference", Fig11},
		{"fig12", "Area validation vs synthesis reference", Fig12},
		{"table3", "System validation vs FPGA model", Table3},
		{"table4", "Simulator setup and runtime vs trace baseline", Table4},
		{"fig13", "GEMM design-space Pareto", Fig13},
		{"fig14", "GEMM stalls breakdown vs read/write ports", Fig14},
		{"fig15", "GEMM memory/compute co-design exploration", Fig15},
		{"fig16", "Producer-consumer accelerator scenarios (CNN layer)", Fig16},
	}
}

// RunnerByID finds an experiment.
func RunnerByID(id string) (Runner, bool) {
	for _, r := range AllRunners() {
		if r.ID == id {
			return r, true
		}
	}
	return Runner{}, false
}

// helpers

func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func pct(v float64) string { return fmt.Sprintf("%.2f%%", v*100) }
func itoa(v int) string    { return fmt.Sprintf("%d", v) }
func u64(v uint64) string  { return fmt.Sprintf("%d", v) }

// errPct returns |a-b|/b as a percentage value.
func errPct(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	d := (a - b) / b
	if d < 0 {
		d = -d
	}
	return d * 100
}

// signedErrPct returns (a-b)/b as a percentage (positive = a larger).
func signedErrPct(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return (a - b) / b * 100
}
