package main

// derive computes the per-layer table from a trace alone: times from span
// durations, counts from what the spans recorded at their boundaries. The
// traced run prints derive(its own spans); `-derive file` prints the same
// table from the flushed file without re-running anything.
func derive(spans []span) map[string]float64 {
	out := make(map[string]float64, len(perLayerUnits))
	for name := range perLayerUnits {
		out[name] = 0
	}

	byName := make(map[string][]span)
	children := make(map[int][]span)
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s)
		children[s.Parent] = append(children[s.Parent], s)
	}

	// Timed passes, split by whether the harness wrappers were on.
	var timed, traced, untraced []span
	for _, p := range byName["pass"] {
		if p.Pass < 1 {
			continue
		}
		timed = append(timed, p)
		if p.N["traced"] == 1 {
			traced = append(traced, p)
		} else {
			untraced = append(untraced, p)
		}
	}
	if len(timed) == 0 {
		return out
	}
	wall := func(p span) float64 { return p.N["wall_ns"] }
	over := func(passes []span, f func(span) float64) float64 {
		vals := make([]float64, 0, len(passes))
		for _, p := range passes {
			vals = append(vals, f(p))
		}
		if len(vals) == 0 {
			return 0
		}
		return median(vals)
	}
	// descendants sums the durations (and counts) of the spans of the given
	// name anywhere under a pass.
	var descendants func(parent int, name string) (ns, n float64)
	descendants = func(parent int, name string) (ns, n float64) {
		for _, c := range children[parent] {
			if c.Name == name {
				ns += float64(c.dur())
				n++
			}
			cns, cn := descendants(c.ID, name)
			ns, n = ns+cns, n+cn
		}
		return ns, n
	}
	// probe returns the fastest sweep's time per call and that sweep's counts.
	probe := func(name string) (nsPerOp float64, counts map[string]float64) {
		for _, s := range byName["probe:"+name] {
			ops := s.N["ops"]
			if ops == 0 {
				continue
			}
			if v := float64(s.dur()) / ops; counts == nil || v < nsPerOp {
				nsPerOp, counts = v, s.N
			}
		}
		return nsPerOp, counts
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	// Set-up spans cover a batch of set-ups each; the first one is the
	// discarded cold batch.
	setupMS := func(name string) float64 {
		var vals []float64
		for _, s := range byName[name] {
			if s.Pass == setupPass && s.N["batch"] > 0 {
				vals = append(vals, float64(s.dur())/1e6/s.N["batch"])
			}
		}
		if len(vals) < 2 {
			return 0
		}
		return median(vals[1:])
	}

	// The live workload's checker work crosses the CheckRound seam, which
	// exists only in traced passes; everywhere else the pass is the search.
	isLive := timed[0].N["rounds"] > 0
	mcPasses := timed
	mcStates := func(p span) float64 { return p.N["states"] }
	if isLive {
		mcPasses = traced
		mcStates = func(p span) float64 { return p.N["seam_states"] }
	}
	checkerNS := func(p span) float64 {
		total := 0.0
		for _, name := range []string{"mc.Search.Run", "dist.RunRound", "controller.CheckRound"} {
			ns, _ := descendants(p.ID, name)
			total += ns
		}
		return total
	}

	out["scenario.initial_state_ms"] = setupMS("scenario.InitialState")
	out["scenario.deploy_ms"] = setupMS("scenario.Deploy")

	encodeNS, encodeN := probe("sm.EncodeFullState")
	out["sm.encode_fullstate_ns"] = encodeNS
	out["sm.fullstate_bytes"] = ratio(encodeN["bytes"], encodeN["ops"])
	out["sm.decode_fullstate_ns"], _ = probe("sm.DecodeFullState")
	out["services.clone_ns"], _ = probe("sm.Service.Clone")
	_, svcN := probe("sm.EncodeService")
	out["services.encode_state_bytes"] = ratio(svcN["bytes"], svcN["ops"])
	checkNS, checkN := probe("props.Check")
	out["props.check_ns_per_state"] = checkNS
	out["props.violating_share"] = ratio(checkN["violating"], checkN["ops"])

	applyNS, _ := probe("mc.Search.ApplyEvent")
	enabledNS, enabledN := probe("mc.Expander.Events")
	out["mc.apply_event_ns"] = applyNS
	out["mc.enabled_events_ns_per_state"] = enabledNS
	out["mc.events_per_state"] = ratio(enabledN["events"], enabledN["ops"])
	out["mc.full_hash_ns"], _ = probe("mc.GState.FullHash")
	out["mc.replay_ns_per_event"], _ = probe("mc.Search.Replay")
	out["dist.describe_event_ns"], _ = probe("dist.DescribeEvent")

	out["mc.transitions_per_state"] = over(mcPasses, func(p span) float64 { return ratio(p.N["transitions"], mcStates(p)) })
	out["mc.pruned_share"] = over(mcPasses, func(p span) float64 { return ratio(p.N["pruned"], p.N["transitions"]+p.N["pruned"]) })
	out["mc.allocs_per_transition"] = over(mcPasses, func(p span) float64 { return ratio(p.N["mallocs"], p.N["transitions"]) })
	out["mc.alloc_bytes_per_transition"] = over(mcPasses, func(p span) float64 { return ratio(p.N["alloc_bytes"], p.N["transitions"]) })
	out["mc.accounted_bytes_per_state"] = over(mcPasses, func(p span) float64 { return ratio(p.N["accounted_bytes"], mcStates(p)) })
	for _, s := range byName["mc.retained_pass"] {
		out["mc.retained_bytes_per_state"] = ratio(s.N["max_live_bytes"], s.N["states"])
	}
	out["mc.gc_cycles"] = over(timed, func(p span) float64 { return p.N["gc_cycles"] })
	out["mc.gc_cpu_share"] = over(timed, func(p span) float64 { return ratio(p.N["gc_cpu_s"], p.N["total_cpu_s"]) })
	out["mc.cpu_user_s"] = over(timed, func(p span) float64 { return p.N["cpu_user_s"] })
	out["mc.cpu_sys_s"] = over(timed, func(p span) float64 { return p.N["cpu_sys_s"] })
	out["mc.run_wall_s"] = over(traced, func(p span) float64 { return checkerNS(p) / 1e9 })
	out["mc.engine_residual_ns_per_transition"] = over(traced, func(p span) float64 {
		perTransition := ratio(checkerNS(p), p.N["transitions"])
		probed := applyNS + (enabledNS+checkNS)*ratio(mcStates(p), p.N["transitions"])
		return perTransition - probed
	})

	if sessions := byName["dist.session"]; len(sessions) > 0 {
		out["dist.speedup_vs_serial"] = ratio(timed[0].N["serial_ns"], over(timed, wall))
		out["dist.forwarded_share"] = over(timed, func(p span) float64 { return ratio(p.N["forwarded"], p.N["states"]) })
		out["dist.remote_deduped_share"] = over(timed, func(p span) float64 { return ratio(p.N["remote_deduped"], p.N["forwarded"]) })
		out["dist.batch_flushes"] = over(timed, func(p span) float64 { return p.N["batch_flushes"] })
		out["dist.states_per_batch"] = over(timed, func(p span) float64 { return ratio(p.N["forwarded"], p.N["batch_flushes"]) })
		out["dist.reexpansion_share"] = over(timed, func(p span) float64 { return ratio(p.N["transitions"], p.N["serial_transitions"]) - 1 })
		out["dist.shard_skew"] = over(timed, func(p span) float64 { return ratio(p.N["shard_states_max"], p.N["shard_states_min"]) })
		out["dist.retries"] = over(timed, func(p span) float64 { return p.N["retries"] })
		out["dist.send_ns_per_msg"] = over(traced, func(p span) float64 { return ratio(descendants(p.ID, "dist.Conn.Send")) })
		out["dist.recv_wait_share"] = over(traced, func(p span) float64 {
			wait, _ := descendants(p.ID, "dist.Conn.Recv")
			shardWall, _ := descendants(p.ID, "dist.RunShard")
			return ratio(wait, shardWall)
		})
	}

	if isLive {
		out["sim.virtual_s_per_host_s"] = ratio(timed[0].N["virtual_s"], over(timed, wall)/1e9)
		for _, s := range byName["sim.bare_pass"] {
			out["sim.bare_virtual_s_per_host_s"] = ratio(s.N["virtual_s"], float64(s.dur())/1e9)
		}
		count := func(key string) float64 { return over(timed, func(p span) float64 { return p.N[key] }) }
		out["simnet.msgs_out"] = count("msgs_out")
		out["simnet.checkpoint_bytes_share"] = ratio(count("bytes_checkpoint"), count("bytes_service")+count("bytes_checkpoint")+count("bytes_control"))
		out["runtime.actions_per_host_s"] = over(timed, func(p span) float64 { return ratio(p.N["actions"], wall(p)/1e9) })
		out["runtime.isc_checks"] = count("isc_checks")
		out["runtime.isc_block_share"] = ratio(count("isc_blocks"), count("isc_checks"))
		out["runtime.filter_drop_share"] = ratio(count("dropped"), count("actions")+count("dropped"))
		out["snapshot.bytes_per_round"] = ratio(count("snapshot_bytes"), count("rounds"))
		out["snapshot.checkpoint_bytes"] = count("checkpoint_bytes")
		out["snapshot.failure_share"] = ratio(count("snapshot_failures"), count("rounds")+count("snapshot_failures"))
		out["controller.rounds"] = count("rounds")
		out["controller.filters_installed"] = count("filters_installed")
		out["controller.filter_unsafe_share"] = ratio(count("filter_unsafe"), count("filters_installed")+count("filter_unsafe"))
		out["controller.replay_reinstalls"] = count("replay_reinstalls")
		out["controller.mc_virtual_s"] = count("mc_virtual_s")
		out["controller.searched_round_share"] = over(traced, func(p span) float64 { return ratio(p.N["seam_calls"], p.N["rounds"]) })
		out["controller.states_per_round"] = over(traced, func(p span) float64 { return ratio(p.N["seam_states"], p.N["seam_calls"]) })
		out["controller.check_host_share"] = over(traced, func(p span) float64 { return ratio(checkerNS(p), wall(p)) })
		out["controller.recheck_states_share"] = over(traced, func(p span) float64 { return ratio(p.N["states"]-p.N["seam_states"], p.N["states"]) })
		// Round latency is pooled over the traced timed passes: thousands
		// of samples, hundreds of them beyond the 95th percentile.
		var rounds []float64
		for _, s := range byName["controller.CheckRound"] {
			if s.Pass >= 1 {
				rounds = append(rounds, float64(s.dur())/1e6)
			}
		}
		if len(rounds) > 0 {
			out["controller.round_ms_p50"] = quantile(rounds, 0.5)
			out["controller.round_ms_p95"] = quantile(rounds, 0.95)
		}
	}

	walls := make([]float64, len(timed))
	attempted, failed := 0.0, 0.0
	for i, p := range timed {
		walls[i] = wall(p)
		attempted += p.N["attempted"]
		failed += p.N["failed"]
	}
	for _, p := range byName["pass"] {
		if p.Pass == 0 {
			out["bench.cold_pass_s"] = wall(p) / 1e9
		}
	}
	out["bench.pass_s"] = median(walls) / 1e9
	out["bench.pass_spread"] = spread(walls)
	out["bench.failed_share"] = ratio(failed, attempted)
	if len(traced) > 0 && len(untraced) > 0 {
		out["bench.trace_overhead_share"] = ratio(over(traced, wall), over(untraced, wall)) - 1
	}
	for _, s := range byName["bench.calibrate"] {
		out["bench.calibration_ns"] = s.N["best_ns"]
	}
	return out
}
