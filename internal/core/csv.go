package core

import (
	"fmt"
	"os"
	"path/filepath"

	"gpluscircles/internal/report"
	"gpluscircles/internal/stats"
)

// WriteFigureCSVs materializes the data series behind every figure as
// long-format CSV files (series,x,y) in dir, so the paper's plots can be
// regenerated with external tooling: fig2.csv (membership counts),
// fig3.csv (in-degree CCDF + fit), fig4.csv (clustering CDF), fig5.csv
// (per-function circle/random CDFs) and fig6.csv (per-function
// per-data-set CDFs). Every series comes from the suite's memoized
// result of its figure (the overlap analysis, degree fit, graph profile
// and the Fig. 5 and Fig. 6 draws), so it is the series the report
// prints.
func WriteFigureCSVs(s *Suite, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("create %s: %w", dir, err)
	}
	gp, err := s.GPlus()
	if err != nil {
		return err
	}

	// fig2: membership counts.
	overlap, err := s.overlapResult()
	if err != nil {
		return err
	}
	xs, ys := overlap.MembershipSeries()
	if err := writeCSVFile(filepath.Join(dir, "fig2.csv"), []report.Series{
		{Name: "membership", X: xs, Y: ys},
	}); err != nil {
		return err
	}

	// fig3: in-degree CCDF plus the fitted log-normal CCDF.
	fitExp, err := s.fitDegrees(gp.Graph)
	if err != nil {
		return err
	}
	dataY := make([]float64, len(fitExp.InDegreeCDF.X))
	fitY := make([]float64, len(fitExp.InDegreeCDF.X))
	for i, x := range fitExp.InDegreeCDF.X {
		dataY[i] = 1 - fitExp.InDegreeCDF.Y[i]
		fitY[i] = 1 - fitExp.Fit.LogNormal.CDF(int(x))
	}
	if err := writeCSVFile(filepath.Join(dir, "fig3.csv"), []report.Series{
		{Name: "data", X: fitExp.InDegreeCDF.X, Y: dataY},
		{Name: "lognormal-fit", X: fitExp.InDegreeCDF.X, Y: fitY},
	}); err != nil {
		return err
	}

	// fig4: clustering CDF.
	prof, err := s.Profile(gp)
	if err != nil {
		return err
	}
	if err := writeCSVFile(filepath.Join(dir, "fig4.csv"), []report.Series{
		report.CDFSeries("clustering", prof.ClusteringCDF),
	}); err != nil {
		return err
	}

	// fig5: per-function circle vs random CDFs.
	fig5, err := s.fig5Result()
	if err != nil {
		return err
	}
	var fig5Series []report.Series
	for _, p := range fig5.Panels {
		fig5Series = append(fig5Series,
			report.CDFSeries(p.Circles.FuncName+"/circles", p.Circles.CDF),
			report.CDFSeries(p.Circles.FuncName+"/random", p.Random.CDF),
		)
	}
	if err := writeCSVFile(filepath.Join(dir, "fig5.csv"), fig5Series); err != nil {
		return err
	}

	// fig6: per-function per-data-set CDFs.
	fig6, err := s.fig6Result()
	if err != nil {
		return err
	}
	var fig6Series []report.Series
	for _, panel := range fig6.Panels {
		for _, dd := range panel.PerDataset {
			fig6Series = append(fig6Series,
				report.CDFSeries(panel.FuncName+"/"+dd.Dataset, dd.Dist.CDF))
		}
	}
	if err := writeCSVFile(filepath.Join(dir, "fig6.csv"), fig6Series); err != nil {
		return err
	}

	// groupsizes.csv: size CDFs per data set.
	datasets, err := s.AllGroupDatasets()
	if err != nil {
		return err
	}
	var sizeSeries []report.Series
	for _, ds := range datasets {
		cdf, err := stats.NewCDF(stats.CountsToFloats(ds.GroupSizes()))
		if err != nil {
			return fmt.Errorf("size CDF %s: %w", ds.Name, err)
		}
		sizeSeries = append(sizeSeries, report.CDFSeries(ds.Name, cdf))
	}
	return writeCSVFile(filepath.Join(dir, "groupsizes.csv"), sizeSeries)
}

// writeCSVFile writes series to one CSV file.
func writeCSVFile(path string, series []report.Series) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create %s: %w", path, err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("close %s: %w", path, cerr)
		}
	}()
	if err := report.WriteCSV(f, series); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
