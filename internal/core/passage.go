package core

import "fmt"

// First-passage analyses backing the paper's Section 5 explanation of
// why TAG loses fewer jobs than the shortest queue: "The first queue
// is unlikely to become full as no job will spend long in service, due
// to the timeout mechanism", while under JSQ two long jobs eventually
// fill both queues.

// ExpectedFillTimes returns the expected time, starting from the empty
// system, until node 1 first fills and until node 2 first fills.
func (m TAGExp) ExpectedFillTimes() (node1, node2 float64, err error) {
	sk, states := m.derive()
	c, err := sk.Instantiate(m.RateValues())
	if err != nil {
		return 0, 0, err
	}
	h1, err := c.ExpectedHittingTimes(func(s int) bool { return states[s].q1 >= m.K1 })
	if err != nil {
		return 0, 0, fmt.Errorf("core: node-1 fill time: %w", err)
	}
	h2, err := c.ExpectedHittingTimes(func(s int) bool { return states[s].q2 >= m.K2 })
	if err != nil {
		return 0, 0, fmt.Errorf("core: node-2 fill time: %w", err)
	}
	return h1[0], h2[0], nil // state 0 is the empty system
}

// ExpectedFillTime returns the expected time from the empty system
// until any queue of the shortest-queue system fills (the loss
// precondition under JSQ is both queues full; "either full" is
// reported for symmetry with TAG and "both full" as the loss event).
func (m ShortestQueue) ExpectedFillTime() (eitherFull, bothFull float64, err error) {
	p := m.product()
	sk, states := p.derive()
	c, err := sk.Instantiate(p.rates)
	if err != nil {
		return 0, 0, err
	}
	full := func(s, j int) bool { return states[s].nodes[j].q >= m.K }
	he, err := c.ExpectedHittingTimes(func(s int) bool { return full(s, 0) || full(s, 1) })
	if err != nil {
		return 0, 0, err
	}
	hb, err := c.ExpectedHittingTimes(func(s int) bool { return full(s, 0) && full(s, 1) })
	if err != nil {
		return 0, 0, err
	}
	return he[0], hb[0], nil // state 0 is the empty system
}
