package sweep

import (
	"fmt"
	"strings"

	"pepatags/internal/obsv"
)

// Assemble turns a run's rows into the figure its spec describes.
// Rows of one point series are taken in point (seq) order, so column
// order matches the order the spec generated the grid in.
func Assemble(spec *Spec, res *RunResult) (*obsv.Figure, error) {
	f := spec.Figure
	if f == nil {
		return nil, fmt.Errorf("sweep: spec %q has no figure section", spec.Name)
	}
	bySeries := make(map[string][]Row)
	for _, r := range res.Rows {
		bySeries[r.Series] = append(bySeries[r.Series], r)
	}
	get := func(r Row, measure string) (float64, error) {
		v, ok := r.Measures[measure]
		if !ok {
			return 0, fmt.Errorf("sweep: figure %q: series %q has no measure %q (row %d)", f.ID, r.Series, measure, r.Seq)
		}
		return v, nil
	}

	t := &obsv.Figure{ID: f.ID, Title: f.Title, XLabel: f.XLabel, YLabel: f.YLabel}
	for _, ss := range f.Series {
		rows := bySeries[ss.From]
		if len(rows) == 0 {
			return nil, fmt.Errorf("sweep: figure %q: no rows for point series %q", f.ID, ss.From)
		}
		col := obsv.Series{Name: ss.Name}
		if ss.BroadcastX != "" {
			grid := bySeries[ss.BroadcastX]
			if len(grid) == 0 {
				return nil, fmt.Errorf("sweep: figure %q: broadcast_x series %q has no rows", f.ID, ss.BroadcastX)
			}
			y, err := get(rows[0], ss.Measure)
			if err != nil {
				return nil, err
			}
			for _, g := range grid {
				col.X = append(col.X, g.X)
				col.Y = append(col.Y, y)
			}
		} else {
			for _, r := range rows {
				y, err := get(r, ss.Measure)
				if err != nil {
					return nil, err
				}
				col.X = append(col.X, r.X)
				col.Y = append(col.Y, y)
			}
		}
		t.Series = append(t.Series, col)
	}

	for _, ns := range f.Notes {
		if ns.Text != "" {
			t.Notes = append(t.Notes, ns.Text)
			continue
		}
		rows := bySeries[ns.From]
		if len(rows) == 0 {
			return nil, fmt.Errorf("sweep: figure %q: note references point series %q with no rows", f.ID, ns.From)
		}
		if !ns.EachPoint {
			rows = rows[:1]
		}
		for _, r := range rows {
			note, err := formatNote(ns, r)
			if err != nil {
				return nil, fmt.Errorf("sweep: figure %q: %w", f.ID, err)
			}
			t.Notes = append(t.Notes, note)
		}
	}
	return t, nil
}

// formatNote fills one templated note from a row. Args resolve against
// the row measures ("x" is the point coordinate); an ":int" suffix
// converts for %d verbs.
func formatNote(ns NoteSpec, r Row) (string, error) {
	vals := make([]any, 0, len(ns.Args))
	for _, a := range ns.Args {
		name, asInt := a, false
		if strings.HasSuffix(a, ":int") {
			name, asInt = strings.TrimSuffix(a, ":int"), true
		}
		var v float64
		if name == "x" {
			v = r.X
		} else {
			m, ok := r.Measures[name]
			if !ok {
				return "", fmt.Errorf("note arg %q: row %d has no such measure", a, r.Seq)
			}
			v = m
		}
		if asInt {
			vals = append(vals, int(v))
		} else {
			vals = append(vals, v)
		}
	}
	return fmt.Sprintf(ns.Template, vals...), nil
}
