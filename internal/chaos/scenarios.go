package chaos

// Library is the stock scenario set: at least one scenario per layer's
// fault points (AppVisor wire + kill, app crashes, NetLog rollback
// faults, netsim topology faults) plus a baseline and an everything-on
// stress mix. Deterministic scenarios run their workload in lockstep
// and reproduce byte-for-byte from the seed; the netsim scenarios
// involve concurrent switch goroutines, so they assert invariants but
// not byte equality.
func Library() []Scenario {
	return []Scenario{
		{
			Name:          "baseline",
			Description:   "no faults: the harness itself must not violate anything",
			Deterministic: true,
		},
		{
			Name:          "av-drop",
			Description:   "AppVisor drops event datagrams; timeouts drive Crash-Pad recovery",
			Wire:          WireFaultProbs{Drop: 0.12},
			Deterministic: true,
		},
		{
			Name:          "av-corrupt",
			Description:   "AppVisor corrupts datagram framing; receivers must reject, never crash",
			Wire:          WireFaultProbs{Corrupt: 0.12},
			Deterministic: true,
		},
		{
			Name:          "av-dup-delay",
			Description:   "duplicated and delayed datagrams; FIFO must tolerate both",
			Wire:          WireFaultProbs{Dup: 0.15, Delay: 0.15},
			Deterministic: true,
		},
		{
			Name:          "av-kill",
			Description:   "stubs killed between events; next delivery detects and recovers",
			KillProb:      0.08,
			Deterministic: true,
		},
		{
			Name:          "app-crash-replay",
			Description:   "transient app panics every 7th delivery; checkpoint+replay recovers",
			CrashEvery:    7,
			Deterministic: true,
		},
		{
			Name:            "netlog-inverse-fail",
			Description:     "inverse ops fail during rollback, leaving deliberate residue",
			CrashEvery:      5,
			InverseFailProb: 0.5,
			SkipShadowCheck: true, // residue desynchronizes shadow vs switch by design
			Deterministic:   true,
		},
		{
			Name:            "netlog-disconnect",
			Description:     "switch severed mid-rollback; shadow must resync on reconnect",
			CrashEvery:      6,
			DisconnectProb:  0.4,
			SkipShadowCheck: true, // inverses after the cut cannot reach the switch
			Deterministic:   true,
		},
		{
			Name:          "durable-crash-recovery",
			Description:   "controller killed mid-transaction; restart from the state dir rolls it back",
			Events:        20,
			Deterministic: true,
			Custom:        runDurableRecovery,
		},
		{
			Name:        "ha-kill-leader-mid-txn",
			Description: "replicated control plane: leader SIGKILLed mid-transaction; the followers see its streams end; one takes the next epoch and rolls it back",
			Events:      16,
			Custom:      runHAKillLeader,
		},
		{
			Name:        "ha-partition-leader",
			Description: "replicated control plane: leader partitioned away; the successor fences it via switch role demotion",
			Events:      16,
			Custom:      runHAPartitionLeader,
		},
		{
			Name:        "ha-follower-lag-failover",
			Description: "replicated control plane: slow followers force a real catch-up drain before the successor serves",
			Events:      16,
			Custom:      runHAFollowerLag,
		},
		{
			Name:        "netsim-flap",
			Description: "inter-switch links flap under load",
			Switches:    3,
			FlapProb:    0.15,
		},
		{
			Name:        "netsim-partition",
			Description: "fabric bisected mid-workload, healed five events later",
			Switches:    4,
			PartitionAt: 10,
		},
		{
			Name:        "netsim-loss",
			Description: "data-plane loss burst; table misses become PacketIns",
			Switches:    2,
			LossBurst:   true,
		},
		{
			Name:        "combo",
			Description: "wire faults, kills, app crashes and flaps together",
			Switches:    3,
			Wire:        WireFaultProbs{Drop: 0.05, Dup: 0.05, Corrupt: 0.05},
			KillProb:    0.04,
			CrashEvery:  11,
			FlapProb:    0.08,
			// Under the combined mix, compound failures inside a recovery
			// window can legitimately exhaust Crash-Pad; combo asserts
			// containment (controller alive, FIFO, txn balance, shadow
			// consistency), not guaranteed recovery.
			AllowQuarantine: true,
		},
	}
}

// Find returns the named library scenario.
func Find(name string) (Scenario, bool) {
	for _, sc := range Library() {
		if sc.Name == name {
			return sc, true
		}
	}
	return Scenario{}, false
}
