package sweep

import "pepatags/internal/core"

// tag returns the point's TAG model at Erlang phase rate t: TAGExp for
// exponential service, TAGH2 for H2. validate has checked the fields
// the core constructors would panic on.
func (p Point) tag(t float64) core.SkeletonModel {
	if p.Service.Kind == "exp" {
		return core.TAGExp{Lambda: p.Lambda, Mu: p.Service.Mu, T: t, N: p.N, K1: p.K1, K2: p.K2}
	}
	return core.TAGH2{Lambda: p.Lambda, Service: p.Service.h2(), T: t, N: p.N, K1: p.K1, K2: p.K2}
}

// baseline returns the point's memoryless baseline ("random",
// "round-robin" or "shortest-queue"); validate has checked its service.
func (p Point) baseline() core.System {
	d, _ := p.Service.Dist()
	switch p.Model {
	case "random":
		return core.NewRandomTwoNode(p.Lambda, d, p.K1)
	case "round-robin":
		return core.NewRoundRobinTwoNode(p.Lambda, d, p.K1)
	default:
		return core.NewShortestQueue(p.Lambda, d, p.K1)
	}
}

// shapeKey returns the content address of the model shape behind the
// point — the cache key its solve will hit — and whether the point
// routes through the cache at all. The memoryless baselines solve
// directly and report false. An "opt-t" search point is keyed at TLo,
// the timeout its search solves first.
func (p Point) shapeKey() (key string, cached bool) {
	switch p.Model {
	case "tagexp", "tagh2":
		return p.tag(p.T).Shape().Key(), true
	case "opt-t":
		return p.tag(float64(p.TLo)).Shape().Key(), true
	default:
		return "", false
	}
}

// FreshShapes counts the distinct shapes among the points that are not
// yet present in the cache — the number of state-space derivations a
// run over these points would have to pay. A nil cache counts every
// distinct shape as fresh. Long-running callers use it to predict,
// before admitting a job, how many fresh derivations it will cost (see
// internal/serve/admission).
func FreshShapes(points []Point, cache *Cache) int {
	seen := make(map[string]bool)
	fresh := 0
	for _, p := range points {
		key, cached := p.shapeKey()
		if !cached || seen[key] {
			continue
		}
		seen[key] = true
		if cache == nil || !cache.Contains(key) {
			fresh++
		}
	}
	return fresh
}
