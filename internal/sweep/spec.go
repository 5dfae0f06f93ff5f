package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"

	"pepatags/internal/dist"
	"pepatags/internal/numeric"
)

// SpecSchema identifies the sweep-spec JSON layout. Bump the trailing
// version when a field changes meaning.
const SpecSchema = "pepatags/sweep-spec/v1"

// maxPoints bounds the expanded point count of one spec. The largest
// built-in figure expands to 33 points and every point is at least one
// model solve, so the bound only rejects specs (a linspace num, or the
// product of a group's axis lengths) that would otherwise allocate
// gigabytes before the first solve.
const maxPoints = 100_000

// Spec is a declarative batch evaluation: a list of parameter points
// (written out directly or generated from grid groups) plus optional
// figure-assembly metadata that turns the result rows into a rendered
// table. Specs are plain JSON — see docs/SWEEPS.md for a cookbook and
// `tagseval -spec-dump <figure>` for the spec behind each built-in
// figure.
type Spec struct {
	Schema string `json:"schema"`
	Name   string `json:"name"`
	// Groups are grid templates, expanded in order before any literal
	// Points.
	Groups []Group `json:"groups,omitempty"`
	// Points are literal evaluation points, appended after the groups.
	Points []Point `json:"points,omitempty"`
	// Figure describes how to assemble result rows into a table.
	Figure *FigureSpec `json:"figure,omitempty"`
}

// ServiceSpec selects the service-demand distribution of a point.
type ServiceSpec struct {
	// Kind is "exp" (exponential, rate Mu) or "h2" (two-branch
	// hyper-exponential built by dist.H2ForTAG from Mean, Alpha, Ratio).
	Kind  string  `json:"kind"`
	Mu    float64 `json:"mu,omitempty"`
	Mean  float64 `json:"mean,omitempty"`
	Alpha float64 `json:"alpha,omitempty"`
	Ratio float64 `json:"ratio,omitempty"`
}

// Dist returns the distribution the spec describes.
func (s ServiceSpec) Dist() (dist.Distribution, error) {
	switch s.Kind {
	case "exp":
		if s.Mu <= 0 {
			return nil, fmt.Errorf("sweep: exp service needs mu > 0, got %g", s.Mu)
		}
		return dist.NewExponential(s.Mu), nil
	case "h2":
		if s.Mean <= 0 || s.Alpha <= 0 || s.Alpha >= 1 || s.Ratio <= 0 {
			return nil, fmt.Errorf("sweep: h2 service needs mean, ratio > 0 and 0 < alpha < 1, got %+v", s)
		}
		return s.h2(), nil
	default:
		return nil, fmt.Errorf("sweep: unknown service kind %q", s.Kind)
	}
}

func (s ServiceSpec) h2() dist.HyperExp { return dist.H2ForTAG(s.Mean, s.Alpha, s.Ratio) }

// Point is one unit of work: a model instance to solve (or an
// optimal-t search to run) producing one journal row of measures.
type Point struct {
	// Series names the point group the figure assembly selects on.
	Series string `json:"series"`
	// X is the figure x-coordinate this point contributes.
	X float64 `json:"x"`
	// Model is "tagexp", "tagh2", "random", "round-robin",
	// "shortest-queue", or "opt-t" (an integer timeout search over the
	// TAG model matching Service.Kind).
	Model string `json:"model"`

	Lambda  float64     `json:"lambda"`
	T       float64     `json:"t,omitempty"` // Erlang phase rate (tagexp/tagh2)
	N       int         `json:"n,omitempty"` // Erlang phases
	K1      int         `json:"k1,omitempty"`
	K2      int         `json:"k2,omitempty"`
	Service ServiceSpec `json:"service"`

	// Optimal-t search bounds (model "opt-t"): Metric is "min-queue",
	// "min-response" or "max-throughput"; TStep > 1 selects the coarse
	// search with refinement.
	Metric string `json:"metric,omitempty"`
	TLo    int    `json:"t_lo,omitempty"`
	THi    int    `json:"t_hi,omitempty"`
	TStep  int    `json:"t_step,omitempty"`
}

// Group is grid sugar: a template point plus axes whose cartesian
// product (first axis slowest) generates concrete points. The first
// axis also sets each generated point's X.
type Group struct {
	Point Point  `json:"point"`
	Axes  []Axis `json:"axes"`
}

// Axis varies one field of the template across a value list or a
// linspace.
type Axis struct {
	// Field is one of "lambda", "t", "eff" (effective timeout rate t/n;
	// sets T = value * N), "alpha", "mu", "mean", "ratio", "k" (both
	// capacities), "k1", "k2", "n", "x" (coordinate only).
	Field    string    `json:"field"`
	Values   []float64 `json:"values,omitempty"`
	Linspace *Linspace `json:"linspace,omitempty"`
}

// Linspace is Num evenly spaced values from From to To inclusive.
type Linspace struct {
	From float64 `json:"from"`
	To   float64 `json:"to"`
	Num  int     `json:"num"`
}

// size returns the number of values on the axis without making them.
func (a Axis) size() (int, error) {
	switch {
	case len(a.Values) > 0 && a.Linspace == nil:
		return len(a.Values), nil
	case len(a.Values) == 0 && a.Linspace != nil:
		if a.Linspace.Num < 1 {
			return 0, fmt.Errorf("sweep: axis %q linspace needs num >= 1", a.Field)
		}
		return a.Linspace.Num, nil
	default:
		return 0, fmt.Errorf("sweep: axis %q needs exactly one of values or linspace", a.Field)
	}
}

// values returns the axis grid; size has checked it.
func (a Axis) values() []float64 {
	if a.Linspace == nil {
		return a.Values
	}
	return numeric.Linspace(a.Linspace.From, a.Linspace.To, a.Linspace.Num)
}

// set applies one axis value to a point.
func (a Axis) set(p *Point, v float64) error {
	switch a.Field {
	case "lambda":
		p.Lambda = v
	case "t":
		p.T = v
	case "eff":
		p.T = v * float64(p.N)
	case "alpha":
		p.Service.Alpha = v
	case "mu":
		p.Service.Mu = v
	case "mean":
		p.Service.Mean = v
	case "ratio":
		p.Service.Ratio = v
	case "k":
		p.K1, p.K2 = int(v), int(v)
	case "k1":
		p.K1 = int(v)
	case "k2":
		p.K2 = int(v)
	case "n":
		p.N = int(v)
	case "x":
		// coordinate only; X is set below for the first axis anyway
	default:
		return fmt.Errorf("sweep: unknown axis field %q", a.Field)
	}
	return nil
}

// Expand generates the concrete point list: groups in order (cartesian
// product within a group, first axis slowest), then the literal points.
// A spec that would expand past maxPoints points is an error, found
// before any grid or point is made.
func (s *Spec) Expand() ([]Point, error) {
	total := len(s.Points)
	for gi, g := range s.Groups {
		if len(g.Axes) == 0 {
			return nil, fmt.Errorf("sweep: group %d has no axes (use points for singletons)", gi)
		}
		n := 1
		for _, a := range g.Axes {
			k, err := a.size()
			if err != nil {
				return nil, err
			}
			if k > maxPoints/n {
				return nil, fmt.Errorf("sweep: group %d expands to more than %d points", gi, maxPoints)
			}
			n *= k
		}
		if total += n; total > maxPoints {
			break
		}
	}
	if total > maxPoints {
		return nil, fmt.Errorf("sweep: spec %q expands to more than %d points", s.Name, maxPoints)
	}
	out := make([]Point, 0, total)
	for _, g := range s.Groups {
		grids := make([][]float64, len(g.Axes))
		for i, a := range g.Axes {
			grids[i] = a.values()
		}
		idx := make([]int, len(g.Axes))
		for {
			p := g.Point
			for i, a := range g.Axes {
				if err := a.set(&p, grids[i][idx[i]]); err != nil {
					return nil, err
				}
			}
			p.X = grids[0][idx[0]]
			out = append(out, p)
			// Odometer increment, last axis fastest.
			i := len(idx) - 1
			for ; i >= 0; i-- {
				idx[i]++
				if idx[i] < len(grids[i]) {
					break
				}
				idx[i] = 0
			}
			if i < 0 {
				break
			}
		}
	}
	out = append(out, s.Points...)
	if len(out) == 0 {
		return nil, fmt.Errorf("sweep: spec %q has no points", s.Name)
	}
	for i := range out {
		if err := out[i].validate(); err != nil {
			return nil, fmt.Errorf("sweep: point %d (series %q): %w", i, out[i].Series, err)
		}
	}
	return out, nil
}

// validate checks one expanded point.
func (p *Point) validate() error {
	if p.Series == "" {
		return fmt.Errorf("no series name")
	}
	if p.Lambda <= 0 || math.IsNaN(p.Lambda) || math.IsInf(p.Lambda, 0) {
		return fmt.Errorf("lambda must be positive, got %g", p.Lambda)
	}
	needTAG := func() error {
		if p.N < 1 || p.K1 < 1 || p.K2 < 1 {
			return fmt.Errorf("need n, k1, k2 >= 1, got n=%d k1=%d k2=%d", p.N, p.K1, p.K2)
		}
		return nil
	}
	if _, err := p.Service.Dist(); err != nil {
		return err
	}
	switch p.Model {
	case "tagexp", "tagh2":
		// The model names its service kind: tagexp exp, tagh2 h2.
		if kind := strings.TrimPrefix(p.Model, "tag"); p.Service.Kind != kind {
			return fmt.Errorf("%s needs %s service, got %q", p.Model, kind, p.Service.Kind)
		}
		if p.T <= 0 {
			return fmt.Errorf("%s needs t > 0, got %g", p.Model, p.T)
		}
		return needTAG()
	case "random", "round-robin", "shortest-queue":
		if p.K1 < 1 {
			return fmt.Errorf("%s needs k1 >= 1", p.Model)
		}
		return nil
	case "opt-t":
		if _, err := parseMetric(p.Metric); err != nil {
			return err
		}
		if p.TLo < 1 || p.THi < p.TLo {
			return fmt.Errorf("opt-t needs 1 <= t_lo <= t_hi, got [%d, %d]", p.TLo, p.THi)
		}
		return needTAG()
	default:
		return fmt.Errorf("unknown model %q", p.Model)
	}
}

// Validate checks the spec: its schema, name and figure, and every
// expanded point.
func (s *Spec) Validate() error {
	_, err := s.expandValid()
	return err
}

// expandValid validates the spec and returns its expanded points.
func (s *Spec) expandValid() ([]Point, error) {
	if s.Schema != SpecSchema {
		return nil, fmt.Errorf("sweep: spec schema %q, want %q", s.Schema, SpecSchema)
	}
	if s.Name == "" {
		return nil, fmt.Errorf("sweep: spec has no name")
	}
	pts, err := s.Expand()
	if err != nil {
		return nil, err
	}
	if s.Figure != nil {
		if err := s.Figure.validate(); err != nil {
			return nil, err
		}
	}
	return pts, nil
}

// Resolve validates the spec and returns its expanded points and its
// Hash from one expansion.
func (s *Spec) Resolve() ([]Point, string, error) {
	pts, err := s.expandValid()
	if err != nil {
		return nil, "", err
	}
	b, err := json.Marshal(struct {
		Schema string  `json:"schema"`
		Name   string  `json:"name"`
		Points []Point `json:"points"`
	}{SpecSchema, s.Name, pts})
	if err != nil {
		return nil, "", err
	}
	h := sha256.Sum256(b)
	return pts, hex.EncodeToString(h[:]), nil
}

// Hash returns the content address of the sweep: the SHA-256 (hex) of
// the canonical encoding of the spec name and its fully expanded point
// list. The journal header records it, so a resume against an edited
// spec fails loudly instead of mixing incompatible rows. An invalid
// spec has no hash: Hash checks what Validate checks.
func (s *Spec) Hash() (string, error) {
	_, hash, err := s.Resolve()
	return hash, err
}

// ReadSpec loads and validates a spec file.
func ReadSpec(path string) (*Spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("sweep: %s: %w", path, err)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("sweep: %s: %w", path, err)
	}
	return &s, nil
}

// FigureSpec describes how result rows assemble into a rendered table:
// which point series feed which columns, and the notes above the table.
type FigureSpec struct {
	ID     string `json:"id"`
	Title  string `json:"title,omitempty"`
	XLabel string `json:"xlabel,omitempty"`
	YLabel string `json:"ylabel,omitempty"`
	// Series are the table columns in order. A point series that no
	// column references still runs (its measures can feed notes).
	Series []SeriesSpec `json:"series"`
	Notes  []NoteSpec   `json:"notes,omitempty"`
}

// SeriesSpec maps one point series and measure onto a table column.
type SeriesSpec struct {
	Name string `json:"name"`
	// From selects the point series; Measure picks the row measure
	// ("L", "W", "throughput", "states", "t_opt", ...).
	From    string `json:"from"`
	Measure string `json:"measure"`
	// BroadcastX replicates a single point's value across the x grid of
	// the named point series — for flat baselines drawn against a sweep.
	BroadcastX string `json:"broadcast_x,omitempty"`
}

// NoteSpec is one comment line above the table: either literal Text, or
// a fmt template filled from a point's measures. Args name measures, or
// "x" for the point's coordinate; an ":int" suffix converts the value
// for %d verbs. With EachPoint the note repeats for every point of the
// series, in order.
type NoteSpec struct {
	Text      string   `json:"text,omitempty"`
	Template  string   `json:"template,omitempty"`
	Args      []string `json:"args,omitempty"`
	From      string   `json:"from,omitempty"`
	EachPoint bool     `json:"each_point,omitempty"`
}

func (f *FigureSpec) validate() error {
	if f.ID == "" {
		return fmt.Errorf("sweep: figure spec has no id")
	}
	if len(f.Series) == 0 {
		return fmt.Errorf("sweep: figure %q has no series", f.ID)
	}
	for _, s := range f.Series {
		if s.Name == "" || s.From == "" || s.Measure == "" {
			return fmt.Errorf("sweep: figure %q: series needs name, from and measure: %+v", f.ID, s)
		}
	}
	for _, n := range f.Notes {
		if (n.Text == "") == (n.Template == "") {
			return fmt.Errorf("sweep: figure %q: note needs exactly one of text or template", f.ID)
		}
		if n.Template != "" && n.From == "" {
			return fmt.Errorf("sweep: figure %q: templated note needs a from series", f.ID)
		}
	}
	return nil
}
