// Haasdemo walks the Hardware-as-a-Service lifecycle of §V-F / Fig. 13:
// a Resource Manager leases FPGAs to two Service Managers, a leased node
// fails, and the service self-heals with a replacement from the pool —
// all against real shells whose role slots get reconfigured.
package main

import (
	"fmt"

	configcloud "repro"
	"repro/internal/haas"
	"repro/internal/shell"
)

// demoRole stands in for a service accelerator image.
type demoRole struct{ image string }

func (r demoRole) Name() string { return r.image }
func (r demoRole) HandleRequest(src shell.RequestSource, payload []byte, respond func([]byte)) {
	respond(payload)
}

func main() {
	cloud := configcloud.New(configcloud.Options{Seed: 2})
	const nodes = 12
	alive := map[haas.NodeID]bool{}

	rm := haas.NewResourceManager(cloud.Sim, haas.RMConfig{})
	for i := 0; i < nodes; i++ {
		id := haas.NodeID(i)
		alive[id] = true
		sh := cloud.Node(i).Shell
		rm.Register(&haas.FPGAManager{
			Node: id,
			Configure: func(image string) {
				sh.Reconfigure(true, demoRole{image}) // partial: bridge stays up
			},
			Healthy: func() bool { return alive[id] },
		})
	}

	ranking := haas.NewServiceManager(cloud.Sim, rm, "ranking", "rank-v2")
	dnn := haas.NewServiceManager(cloud.Sim, rm, "dnn", "dnn-v1")
	check(ranking.Scale(5, haas.Constraints{}))
	check(dnn.Scale(4, haas.Constraints{}))
	fmt.Printf("pool: %d FPGAs; ranking leased %v; dnn leased %v; free %d\n",
		nodes, ranking.Members(), dnn.Members(), rm.FreeCount())

	victim := ranking.Members()[1]
	fmt.Printf("\nkilling node %d ...\n", victim)
	alive[victim] = false
	cloud.Run(2 * configcloud.Second)

	fmt.Printf("after health poll: ranking members %v (repaired %d, node %d replaced)\n",
		ranking.Members(), ranking.Repaired.Value(), victim)
	fmt.Printf("free FPGAs: %d; RM failures detected: %d\n",
		rm.FreeCount(), rm.Failures.Value())

	// Demand shrinks: the dnn service releases capacity back to the pool.
	dnn.Release()
	fmt.Printf("dnn released its lease; free FPGAs now %d\n", rm.FreeCount())
	rm.Stop()
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}
