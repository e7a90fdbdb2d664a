package sim

import "repro/internal/isa"

// runEvent dispatches one typed wheel event. The hot schedule sites (L2
// routing, line-request hops, offload pipeline, warp wakeups) encode
// their continuation in wheelEvent fields instead of closures, so firing
// them allocates nothing; wevFunc remains the escape hatch for cold paths.
func (sys *System) runEvent(ev *wheelEvent, now int64) {
	switch ev.kind {
	case wevFunc:
		ev.fn(now)

	case wevReconsider:
		ev.sm.reconsider(ev.sw, now)

	case wevLSURetry:
		// MSHR-full retry: re-ready the warp unless a fill already did.
		if ev.sw.state == wsWaitLSU {
			ev.sm.setReady(ev.sw)
		}

	case wevSendOffload:
		// Offload pipeline done: the packed request enters the TX link.
		job := ev.job
		reqBytes := offloadHdrBytes + job.cand.NumLiveIn()*isa.WarpSize*regLaneBytes
		sys.txLinks[job.dest].Send(packetOf(reqBytes, func(rx int64) {
			sm := sys.stacks[job.dest].spawnTarget()
			sm.spawnQ = append(sm.spawnQ, job)
		}), now)

	case wevFinishOffload:
		sys.finishOffload(ev.job, now)

	case wevRouteLoad:
		sys.routeLoad(ev.line, now)

	case wevRouteStore:
		sys.routeStore(ev.t, now)

	case wevMemReq:
		ev.r.step(now)

	case wevTxnDone:
		ev.t.complete(now)
	}
}
