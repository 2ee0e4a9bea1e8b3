package core

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"gpluscircles/internal/report"
	"gpluscircles/internal/score"
	"gpluscircles/internal/stats"
)

func TestWriteFigureCSVs(t *testing.T) {
	s := testSuite()
	dir := t.TempDir()
	if err := WriteFigureCSVs(s, dir); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fig2.csv", "fig3.csv", "fig4.csv", "fig5.csv", "fig6.csv", "groupsizes.csv"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		if len(lines) < 2 {
			t.Errorf("%s has %d lines, want header plus data", name, len(lines))
		}
		if lines[0] != "series,x,y" {
			t.Errorf("%s header = %q", name, lines[0])
		}
		for _, line := range lines[1:3] {
			if strings.Count(line, ",") != 2 {
				t.Errorf("%s malformed row %q", name, line)
			}
		}
	}
	// fig6 must contain all four data sets and all four functions.
	data, err := os.ReadFile(filepath.Join(dir, "fig6.csv"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"avgdeg/Google+", "ratiocut/Twitter", "conductance/LiveJournal", "modularity/Orkut"} {
		if !strings.Contains(string(data), want) {
			t.Errorf("fig6.csv missing series %q", want)
		}
	}
}

func TestWriteFigureCSVsBadDir(t *testing.T) {
	s := testSuite()
	if err := WriteFigureCSVs(s, "/proc/definitely/not/writable"); err == nil {
		t.Error("unwritable dir accepted")
	}
}

// TestFigureCSVsReproducePrint is the oracle for the -csv series: on one
// suite, each series WriteFigureCSVs writes reproduces the figure the
// report prints. The sample behind each ECDF series is rebuilt from its
// steps, and its mean (and, for Fig. 4, its median) must format to the
// printed cell: every fig5.csv series to the point estimate in the fig5
// table, fig4.csv to the fig4 summary line, and every fig6.csv series to
// the Mean column of its fig6 table.
func TestFigureCSVsReproducePrint(t *testing.T) {
	s := NewSuite(goldenOptions())
	printed := map[string]string{}
	for _, id := range []string{"fig4", "fig5", "fig6"} {
		e, err := ExperimentByID(id)
		if err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		if err := e.Run(s, &out); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		printed[id] = out.String()
	}
	dir := t.TempDir()
	if err := WriteFigureCSVs(s, dir); err != nil {
		t.Fatal(err)
	}

	fig4 := readCSVSeries(t, filepath.Join(dir, "fig4.csv"))
	cl := summarizeECDF(t, fig4["clustering"])
	want := fmt.Sprintf("mean %.4f (paper: 0.4901), median %.4f,", cl.Mean, cl.Median)
	if !strings.Contains(printed["fig4"], want) {
		t.Errorf("fig4.csv gives %q, not in the printed summary:\n%s",
			want, strings.SplitN(printed["fig4"], "\n", 2)[0])
	}

	fig5 := readCSVSeries(t, filepath.Join(dir, "fig5.csv"))
	rows := tableRows(t, printed["fig5"], "Circles vs. size-matched random-walk sets (means with 95% bootstrap CI)")
	for _, f := range score.PaperFuncs() {
		row := rows[f.Label]
		if len(row) != 4 {
			t.Fatalf("fig5 table has no %s row", f.Label)
		}
		for col, set := range []string{"circles", "random"} {
			name := f.Name + "/" + set
			got := report.Fmt(summarizeECDF(t, fig5[name]).Mean)
			if cell := strings.Fields(row[1+col])[0]; got != cell {
				t.Errorf("fig5.csv %s mean %s, printed %s", name, got, cell)
			}
		}
	}

	fig6 := readCSVSeries(t, filepath.Join(dir, "fig6.csv"))
	for _, f := range score.PaperFuncs() {
		rows := tableRows(t, printed["fig6"], f.Label+" across data sets")
		for _, ds := range []string{"Google+", "Twitter", "LiveJournal", "Orkut"} {
			if len(rows[ds]) != 5 {
				t.Fatalf("%s fig6 table has no %s row", f.Label, ds)
			}
			name := f.Name + "/" + ds
			if got, cell := report.Fmt(summarizeECDF(t, fig6[name]).Mean), rows[ds][2]; got != cell {
				t.Errorf("fig6.csv %s mean %s, printed %s", name, got, cell)
			}
		}
	}
}

// readCSVSeries parses a series,x,y file into its series by name.
func readCSVSeries(t *testing.T, path string) map[string]report.Series {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	series := map[string]report.Series{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n")[1:] {
		f := strings.Split(line, ",")
		if len(f) != 3 {
			t.Fatalf("%s: malformed row %q", path, line)
		}
		x, errX := strconv.ParseFloat(f[1], 64)
		y, errY := strconv.ParseFloat(f[2], 64)
		if errX != nil || errY != nil {
			t.Fatalf("%s: malformed row %q", path, line)
		}
		sr := series[f[0]]
		sr.X, sr.Y = append(sr.X, x), append(sr.Y, y)
		series[f[0]] = sr
	}
	return series
}

// summarizeECDF rebuilds the sorted sample behind an ECDF series and
// summarizes it. Step i holds n·(Y[i]−Y[i−1]) copies of X[i], where n is
// the smallest sample size that makes every n·Y[i] whole.
func summarizeECDF(t *testing.T, sr report.Series) stats.Summary {
	t.Helper()
	if len(sr.Y) == 0 {
		t.Fatal("empty ECDF series")
	}
	for n := 1; n <= 1<<20; n++ {
		whole := true
		for _, y := range sr.Y {
			if k := y * float64(n); math.Abs(k-math.Round(k)) > 1e-6 {
				whole = false
				break
			}
		}
		if !whole {
			continue
		}
		var sample []float64
		for i, y := range sr.Y {
			for k := int(math.Round(y * float64(n))); len(sample) < k; {
				sample = append(sample, sr.X[i])
			}
		}
		sum, err := stats.Summarize(sample)
		if err != nil {
			t.Fatal(err)
		}
		return sum
	}
	t.Fatal("ECDF steps fit no sample size")
	return stats.Summary{}
}

// tableRows returns the rows of the rendered table with the given
// title, keyed by their first cell; cells are split at runs of two or
// more spaces, so the rows end at the first line with another cell
// count than the header.
func tableRows(t *testing.T, out, title string) map[string][]string {
	t.Helper()
	lines := strings.Split(out, "\n")
	at := slices.Index(lines, title)
	if at < 0 || at+2 >= len(lines) {
		t.Fatalf("table %q not printed", title)
	}
	cells := func(line string) []string { return cellSep.Split(strings.TrimSpace(line), -1) }
	width := len(cells(lines[at+1]))
	rows := map[string][]string{}
	for _, line := range lines[at+3:] {
		c := cells(line)
		if len(c) != width {
			break
		}
		rows[c[0]] = c
	}
	return rows
}

var cellSep = regexp.MustCompile(`\s{2,}`)
