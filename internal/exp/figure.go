package exp

import (
	"fmt"
	"io"
	"strings"
)

// Series is one plotted curve: y(x) samples plus a name.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Figure is a reproduced paper artefact.
type Figure struct {
	ID     string // e.g. "figure6"
	Title  string
	XLabel string
	YLabel string
	Series []Series
	Notes  []string
}

// Render writes the figure as an aligned text table, one row per x
// value, one column per series. Series are aligned on their x grids;
// a series lacking a given x prints "-".
func (f *Figure) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# %s: %s\n", f.ID, f.Title); err != nil {
		return err
	}
	for _, n := range f.Notes {
		if _, err := fmt.Fprintf(w, "# %s\n", n); err != nil {
			return err
		}
	}
	// Collect the union of x values, preserving first-seen order.
	var xs []float64
	seen := map[float64]bool{}
	for _, s := range f.Series {
		for _, x := range s.X {
			if !seen[x] {
				seen[x] = true
				xs = append(xs, x)
			}
		}
	}
	// Header.
	cols := []string{f.XLabel}
	for _, s := range f.Series {
		cols = append(cols, s.Name)
	}
	if _, err := fmt.Fprintln(w, strings.Join(cols, "\t")); err != nil {
		return err
	}
	lookup := func(s Series, x float64) (float64, bool) {
		for i, sx := range s.X {
			if sx == x { //vet:allow floatcmp: grid abscissae are copied, not computed
				return s.Y[i], true
			}
		}
		return 0, false
	}
	for _, x := range xs {
		row := []string{fmt.Sprintf("%.6g", x)}
		for _, s := range f.Series {
			if y, ok := lookup(s, x); ok {
				row = append(row, fmt.Sprintf("%.6g", y))
			} else {
				row = append(row, "-")
			}
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, "\t")); err != nil {
			return err
		}
	}
	return nil
}

// CSV writes the figure in comma-separated form (same layout as
// Render without the comment header).
func (f *Figure) CSV(w io.Writer) error {
	var sb strings.Builder
	if err := f.Render(&sb); err != nil {
		return err
	}
	for _, line := range strings.Split(sb.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if _, err := fmt.Fprintln(w, strings.ReplaceAll(line, "\t", ",")); err != nil {
			return err
		}
	}
	return nil
}
