package main

// Outputs of the tandem workloads at refSeed: delay quantiles p50, p99,
// p99.9 and p99.99 in slots, the maximum delay in slots, and the
// through volume in kbit. Recorded when the benchmark was introduced;
// identical to what netsim prints for the same flags.
var (
	refFIFOH10 = tandemRef{quantiles: [4]int{5, 33, 44, 48}, max: 49, throughArrived: 880491}
	refEDFH30  = tandemRef{quantiles: [4]int{0, 0, 0, 1}, max: 2, throughArrived: 893859}
)
