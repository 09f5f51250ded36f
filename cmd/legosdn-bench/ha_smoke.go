package main

import (
	"fmt"
	"os"
	"sort"

	"legosdn/internal/chaos"
	"legosdn/internal/metrics"
)

// runHASmoke is the CI failover gate behind `legosdn-bench -ha-smoke`:
// it runs the ha-kill-leader-mid-txn library scenario — a 3-replica
// cluster with quorum commit, leader SIGKILLed mid-transaction, a
// follower takes over and rolls the orphan back — and exits zero
// only if every invariant held. Exit codes match the chaos/campaign
// convention: 0 ok, 1 an invariant failed, 2 setup broke.
func runHASmoke(seed uint64, autopsyDir string) int {
	sc, ok := chaos.Find("ha-kill-leader-mid-txn")
	if !ok {
		fmt.Fprintln(os.Stderr, "legosdn-bench: ha-smoke: scenario ha-kill-leader-mid-txn not in library")
		return exitSetupError
	}
	sc.AutopsyDir = autopsyDir
	rep := sc.Run(seed, metrics.NewRegistry())

	fmt.Printf("ha-smoke: scenario=%s seed=%d events=%d\n", sc.Name, seed, rep.EventsInjected)
	keys := make([]string, 0, len(rep.Fired))
	for k := range rep.Fired {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-20s %d\n", k, rep.Fired[k])
	}
	bad := 0
	for _, inv := range rep.Invariants {
		status := "ok"
		if inv.Err != nil {
			status = "FAIL: " + inv.Err.Error()
			bad++
		}
		fmt.Printf("  invariant %-24s %s\n", inv.Name, status)
	}
	if bad > 0 {
		fmt.Printf("ha-smoke: %d invariant violation(s)\n", bad)
		return exitInvariantFail
	}
	fmt.Println("ha-smoke: all invariants held")
	return exitOK
}
