package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"time"

	"booters/internal/geo"
	"booters/internal/protocols"
	"booters/internal/timeseries"
)

// WritePanelCSV writes the weekly panel as CSV with one row per week:
// week start date, global count, one column per country, one per protocol.
// The format round-trips through LoadPanelCSV, so downstream users can
// export the synthetic data, substitute their own measurements, and re-run
// the analysis pipelines.
func WritePanelCSV(w io.Writer, p *Panel) error {
	cw := csv.NewWriter(w)
	header := []string{"week", "global"}
	for _, c := range geo.Countries() {
		header = append(header, c)
	}
	for _, proto := range protocols.All() {
		header = append(header, proto.String())
	}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("dataset: write header: %w", err)
	}
	row := make([]string, len(header))
	for wk := 0; wk < p.Weeks; wk++ {
		row[0] = p.Global.Week(wk).String()
		row[1] = strconv.FormatFloat(p.Global.Values[wk], 'f', -1, 64)
		i := 2
		for _, c := range geo.Countries() {
			row[i] = strconv.FormatFloat(p.Country(c).Values[wk], 'f', -1, 64)
			i++
		}
		for _, proto := range protocols.All() {
			row[i] = strconv.FormatFloat(p.Protocol(proto).Values[wk], 'f', -1, 64)
			i++
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("dataset: write week %d: %w", wk, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// LoadPanelCSV reads a panel written by WritePanelCSV (or externally
// assembled in the same format). Unknown columns are ignored; missing
// country or protocol columns load as zero series, as does the
// country-by-protocol breakdown, which the format does not carry. The
// self-report panel is not part of the CSV format and is left nil, and a
// loaded panel has no planted truth.
func LoadPanelCSV(r io.Reader) (*Panel, error) {
	cr := csv.NewReader(r)
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("dataset: read CSV: %w", err)
	}
	if len(records) < 2 {
		return nil, fmt.Errorf("dataset: CSV has no data rows")
	}
	header := records[0]
	col := make(map[string]int, len(header))
	for i, h := range header {
		col[h] = i
	}
	for _, need := range []string{"week", "global"} {
		if _, ok := col[need]; !ok {
			return nil, fmt.Errorf("dataset: CSV missing %q column", need)
		}
	}

	rows := records[1:]
	first, err := time.Parse("2006-01-02", rows[0][col["week"]])
	if err != nil {
		return nil, fmt.Errorf("dataset: bad first week: %w", err)
	}
	start := timeseries.WeekOf(first)
	weeks := len(rows)

	p := &Panel{Panel: timeseries.NewPanel(start, weeks)}

	parse := func(row []string, name string, wk int) (float64, error) {
		idx, ok := col[name]
		if !ok || idx >= len(row) {
			return 0, nil
		}
		v, err := strconv.ParseFloat(row[idx], 64)
		if err != nil {
			return 0, fmt.Errorf("dataset: week %d column %q: %w", wk, name, err)
		}
		return v, nil
	}

	for wk, row := range rows {
		wkDate, err := time.Parse("2006-01-02", row[col["week"]])
		if err != nil {
			return nil, fmt.Errorf("dataset: week %d: %w", wk, err)
		}
		if got := timeseries.WeekOf(wkDate); !got.Equal(p.Global.Week(wk)) {
			return nil, fmt.Errorf("dataset: week %d is %s, want contiguous weekly rows (expected %s)",
				wk, got, p.Global.Week(wk))
		}
		if p.Global.Values[wk], err = parse(row, "global", wk); err != nil {
			return nil, err
		}
		for _, c := range geo.Countries() {
			if p.Country(c).Values[wk], err = parse(row, c, wk); err != nil {
				return nil, err
			}
		}
		for _, proto := range protocols.All() {
			if p.Protocol(proto).Values[wk], err = parse(row, proto.String(), wk); err != nil {
				return nil, err
			}
		}
	}
	return p, nil
}

// WriteSelfReportCSV writes the booter self-report panel as CSV with one
// row per site-week observation: week start date, booter name, up flag
// (1/0), and the published lifetime attack counter. Both the bundled
// generator panel and a panel rebuilt from a streaming scrape source
// export through this one writer, which is what makes their outputs
// comparable byte for byte.
func WriteSelfReportCSV(w io.Writer, sr *SelfReportPanel) error {
	if _, err := io.WriteString(w, "week,booter,up,total\n"); err != nil {
		return fmt.Errorf("dataset: write self-report header: %w", err)
	}
	for _, h := range sr.Sites {
		for _, o := range h.Obs {
			up := 0
			if o.Up {
				up = 1
			}
			if _, err := fmt.Fprintf(w, "%s,%s,%d,%.0f\n",
				sr.Start.Start.AddDate(0, 0, 7*o.Week).Format("2006-01-02"), h.Name, up, o.Total); err != nil {
				return fmt.Errorf("dataset: write self-report row: %w", err)
			}
		}
	}
	return nil
}

// WriteChurnCSV writes the self-report panel's weekly churn series as
// CSV: week start date, births, deaths, resurrections.
func WriteChurnCSV(w io.Writer, sr *SelfReportPanel) error {
	if _, err := io.WriteString(w, "week,births,deaths,resurrections\n"); err != nil {
		return fmt.Errorf("dataset: write churn header: %w", err)
	}
	for _, c := range sr.Churn {
		if _, err := fmt.Fprintf(w, "%s,%d,%d,%d\n",
			sr.Start.Start.AddDate(0, 0, 7*c.Week).Format("2006-01-02"), c.Births, c.Deaths, c.Resurrections); err != nil {
			return fmt.Errorf("dataset: write churn row: %w", err)
		}
	}
	return nil
}
