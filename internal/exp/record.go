package exp

import (
	"time"

	"pepatags/internal/obsv"
)

// Artefact converts the figure into the manifest record shape,
// carrying the raw float64 series plus every piece of rendering
// metadata, so the exact text table can be regenerated from a manifest
// alone (FigureFromArtefact + Render) and compared bit for bit against
// the table a run printed.
func (f *Figure) Artefact(elapsed time.Duration) obsv.ArtefactRecord {
	rec := obsv.ArtefactRecord{
		ID:         f.ID,
		Title:      f.Title,
		XLabel:     f.XLabel,
		YLabel:     f.YLabel,
		Notes:      f.Notes,
		ElapsedSec: elapsed.Seconds(),
	}
	for _, s := range f.Series {
		rec.Series = append(rec.Series, obsv.SeriesRecord{Name: s.Name, X: s.X, Y: s.Y})
	}
	return rec
}

// FigureFromArtefact is the inverse of Artefact: it rebuilds a
// renderable Figure from a manifest record. No program path calls it:
// the manifest round-trip tests rebuild figures from recorded
// artefacts with it.
func FigureFromArtefact(rec obsv.ArtefactRecord) *Figure {
	f := &Figure{
		ID:     rec.ID,
		Title:  rec.Title,
		XLabel: rec.XLabel,
		YLabel: rec.YLabel,
		Notes:  rec.Notes,
	}
	for _, s := range rec.Series {
		f.Series = append(f.Series, Series{Name: s.Name, X: s.X, Y: s.Y})
	}
	return f
}
