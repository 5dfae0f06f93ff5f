// Package queueing provides classical finite-capacity queueing
// formulae used as baselines and oracles: M/M/1/K (the paper's
// random-split components, in closed form), M/M/c/K, M/PH/1/K for
// phase-type demand, the MMPP-2/M/1/K queue for bursty arrivals, and
// M/G/1 via Pollaczek-Khinchine.
//
// These closed forms serve two roles in the reproduction. As model
// components: RandomAlloc in internal/core is exactly two independent
// M/M/1/K queues, and the balance heuristics of Section 4 reason in
// M/M/1/K terms. As test oracles: the CTMC builders, the PEPA engine
// and the simulator are all validated against these formulae in
// degenerate configurations (e.g. a TAG system with an infinitely
// slow timeout must reproduce M/M/1/K exactly). Little's law
// (Little) converts mean population to mean response time the same
// way the paper does.
package queueing
