package minplus_test

import (
	"fmt"

	"deltasched/internal/minplus"
)

// ExampleConvolve concatenates two per-node service curves into a network
// service curve: rates take the minimum, latencies add.
func ExampleConvolve() {
	node1 := minplus.RateLatency(10, 2)
	node2 := minplus.RateLatency(6, 1)
	net := minplus.Convolve(node1, node2)
	fmt.Printf("S_net(5) = %.0f\n", net.Eval(5)) // 6·(5−3)
	// Output:
	// S_net(5) = 12
}

// ExampleHDev is the one-line worst-case delay bound: envelope against
// service curve.
func ExampleHDev() {
	envelope := minplus.Affine(2, 6)     // rate 2, burst 6
	service := minplus.RateLatency(3, 4) // rate 3, latency 4
	d, err := minplus.HDev(envelope, service)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("delay bound = %.0f (latency + burst/rate)\n", d)
	// Output:
	// delay bound = 6 (latency + burst/rate)
}

// ExampleVDev is the matching backlog bound.
func ExampleVDev() {
	backlog := minplus.VDev(minplus.Affine(2, 6), minplus.RateLatency(3, 4))
	fmt.Printf("backlog bound = %.0f\n", backlog)
	// Output:
	// backlog bound = 14
}
