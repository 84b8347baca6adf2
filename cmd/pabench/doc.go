// Command pabench runs the paper-reproduction experiments (the index is
// bench.Experiments(); -list prints it) and prints their tables.
//
// Usage:
//
//	pabench -list
//	pabench -exp T1,F2 -seed 7
//	pabench -exp T2 -cpuprofile cpu.out -memprofile mem.out
//	pabench            # all experiments
//	pabench -sweep -sweep-max 1000000 -workers 4   # engine scale sweep
//	pabench -jobs 'graphs=torus:400,powerlaw:1000;protocols=mst,sssp;seeds=1-16' -jobs-pool 8
//
// The -sweep form measures the engine itself on torus, star, and
// power-law instances up to -sweep-max nodes; its bal@4 column reports
// the max/mean shard edge-mass ratio of the engine's edge-balanced
// boundaries.
//
// The -jobs form is the multi-run serving mode: the spec's protocols x
// graphs x seeds cross product is drained over one shared worker pool,
// one JSON line per completed run streamed to stdout as it finishes
// (stable field set: job, protocol, family, n, seed, reused, rounds,
// messages, output, ms, and err on failures), with same-topology jobs
// reusing warm networks through congest.Network.Reset. A run summary
// (runs/sec at the configured pool width) goes to stderr.
package main
