// Package core contains the paper's models as Go types: the two-node
// timeout-allocation-with-guess (TAG) system of Section 3 and the
// comparison systems it is measured against.
//
//   - TAGExp (NewTAGExp): the exponential-demand TAG model with an
//     n-phase Erlang timeout race, built both as a direct CTMC (the
//     state space of Figure 3) and as generated PEPA source
//     (PEPASource, the Appendix A model) — the two are
//     cross-validated state-for-state in tests.
//   - The TAG family: TAGH2 (H2 demand, Section 3.2 / Figure 5),
//     TAGHetero (heterogeneous nodes, optionally serving a lone job to
//     completion), TAGExpMMPP and TAGH2MMPP (Section 7's bursty MMPP-2
//     arrivals) and TAGMultiNode (more than two nodes). Each is a
//     parameterisation of one product derivation (product.go): the
//     arrival phase times, per node, the queue length and the head
//     job's H2 branch, stage (repeat or race) and timer phase. The
//     tagged-job response of TAGExp and of either TAGH2 class is an
//     absorbing chain (tagged.go) derived from the same product
//     transitions, with the tagged job kept last at its node.
//   - TAGExp is the oracle the product derivation is tested against:
//     it keeps its own transition rules, and internal/conform asserts
//     the product at TAGExp's parameters gives the same generator up
//     to relabelling. One measures kernel (measures.go) reads every
//     two-node model, from a skeleton or from a chain, in the summation
//     order of ctmc.Chain's Expectation and ActionThroughput.
//   - Both derivations run one breadth-first driver (derive,
//     skeleton.go) over their own step rules. It returns the Skeleton
//     together with the states it found, state i at index i, so a
//     caller that needs more than queue lengths (the tagged job, the
//     response mixtures, the fill times) reads them there; no label is
//     parsed back. A chain built elsewhere has its states recovered by
//     replay, which runs the step rules against the chain's
//     transitions and panics on a chain the derivation did not
//     produce.
//   - RandomAlloc: Bernoulli splitting to independent M/M/1/K queues,
//     the paper's baseline, validated against the closed form in
//     internal/queueing.
//   - The baselines ShortestQueue (exponential or H2 service;
//     join-the-shortest-queue, the strongest conventional competitor,
//     Appendix B PEPA model), ShortestQueueMMPP (JSQ under MMPP-2
//     arrivals) and RoundRobinAlloc (the introduction's round robin)
//     are product parameterisations too: two nodes that serve to
//     completion under a routing policy — the shorter queue with an
//     even tie split, or alternation, where TAG sends every arrival to
//     node 1. Their measures read the skeleton's queue lengths; their
//     response-time mixtures and fill times read the derived product
//     states.
//
// Each model offers Build (the ctmc.Chain) and Analyze, which solves
// for the stationary distribution and fills Measures — mean queue
// lengths L1/L2, mean response time, throughput, loss probability
// and timeout/guess rates — the quantities plotted in Figures 6-12.
package core
