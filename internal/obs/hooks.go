package obs

// HookPoint identifies one crossing of a named instrumentation point.
// The chaos harness enumerates crossings to build its crash-point space;
// any other observer (a test asserting "the pp write happened before the
// data write completed", a latency probe) can use the same seam.
//
// Names are dotted paths, layer-first:
//
//	raizn.write.plan / .submit / .md / .done
//	raizn.flush.done, raizn.reset.wal / .phys / .done, raizn.finish.done
//	raizn.md.append, raizn.pp.write, raizn.rebuild.zone, raizn.scrub.stripe
//	zns.cmd.write / .append / .zrwa / .flush
//	zns.zone.reset / .finish
//
// A point fires after the state transition it names is applied but, for
// device commands, before the completion is delivered — the instant where
// "what is volatile" and "what the host believes" diverge most, which is
// what makes each crossing an interesting crash point.
type HookPoint struct {
	Name string // dotted point name, e.g. "raizn.write.submit"
	Src  int    // device slot, or SrcLogical for volume-level points
	Zone int    // zone index the point concerns, or -1
	Arg  int64  // point-specific detail (sector, stripe, generation)
}

// Hook observes instrumentation-point crossings. Hooks are invoked
// synchronously on the crossing goroutine with no layer locks held, so a
// hook may call back into the device/volume API (snapshot state, inject a
// fault) but must not block on IO it issued from inside the hook.
type Hook func(HookPoint)
