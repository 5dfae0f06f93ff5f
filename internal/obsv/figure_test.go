package obsv

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestArtefactRoundTripRendersIdentically is the property the
// -manifest flag relies on: a figure decoded from its manifest record
// renders the same bytes as the original.
func TestArtefactRoundTripRendersIdentically(t *testing.T) {
	f := Figure{
		ID:     "figure6",
		Title:  "Average queue length vs timeout rate",
		XLabel: "timeout-rate",
		YLabel: "mean queue length",
		Notes:  []string{"TAG CTMC has 4331 states (paper: 4331)"},
		Series: []Series{
			{Name: "TAG", X: []float64{1, 1.5, 2}, Y: []float64{5.123456789012345, 4.000000001, 3}},
			{Name: "random", X: []float64{1, 1.5, 2}, Y: []float64{6.1, 6.1, 6.1}},
		},
	}
	b, err := json.Marshal(ArtefactRecord{Figure: f, ElapsedSec: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	var rec ArtefactRecord
	if err := json.Unmarshal(b, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.ID != "figure6" || rec.ElapsedSec != 0.25 || len(rec.Series) != 2 {
		t.Fatalf("bad record: %+v", rec)
	}

	var want, got strings.Builder
	if err := f.Render(&want); err != nil {
		t.Fatal(err)
	}
	if err := rec.Render(&got); err != nil {
		t.Fatal(err)
	}
	if want.String() != got.String() {
		t.Fatalf("render mismatch:\nwant:\n%s\ngot:\n%s", want.String(), got.String())
	}
}

func TestRenderAndCSV(t *testing.T) {
	f := &Figure{
		ID: "x", Title: "t", XLabel: "x",
		Series: []Series{
			{Name: "a", X: []float64{1, 2}, Y: []float64{3, 4}},
			{Name: "b", X: []float64{2}, Y: []float64{9}},
		},
		Notes: []string{"note"},
	}
	var buf bytes.Buffer
	if err := f.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "# note") || !strings.Contains(out, "a\tb") {
		t.Fatalf("render output:\n%s", out)
	}
	// Missing value renders as '-'.
	if !strings.Contains(out, "\t-") {
		t.Fatalf("missing '-' placeholder:\n%s", out)
	}
	buf.Reset()
	if err := f.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "#") || !strings.Contains(buf.String(), "1,3,-") {
		t.Fatalf("csv output:\n%s", buf.String())
	}
}
