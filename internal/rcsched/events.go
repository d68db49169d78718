package rcsched

// Dispatch paths logged on a dispatch Event: how the slot acquired the
// job's coprocessor at the moment the policy paired them.
const (
	// DispatchResident: the coprocessor was already resident — zero-config.
	DispatchResident = "resident"
	// DispatchStaged: a pre-staged bitstream covers the job, so the swap
	// costs the staged commit instead of a full configuration stream.
	DispatchStaged = "staged"
	// DispatchStream: the slot pays a full configuration stream.
	DispatchStream = "stream"
)

// Event kinds, in the order the serving loop logs them for one job.
const (
	EventShed     = "shed"     // admission rejected or degraded the job
	EventDispatch = "dispatch" // the policy paired the job with a slot
	EventFinish   = "finish"   // the job's output verified and it detached
)

// Event is one decision of the serving loop, logged in Report.Events at
// the instant Serve makes it, after the state change is committed. Every
// job has exactly one shed or dispatch event, and every dispatched job one
// finish event after it.
type Event struct {
	Kind string // EventShed, EventDispatch or EventFinish
	Job  int    // job ID
	// Slot is the shell slot (dispatch/finish); shed events carry -1.
	Slot int
	// AtPs is the job's DonePs on a shed (a rejected job's shed instant,
	// a degraded job's software completion) or finish, and the decision
	// instant on a dispatch.
	AtPs float64
	// Path is the dispatch path (DispatchResident/Staged/Stream) or the
	// shed disposition (rejected/degraded); finish events leave it empty.
	Path string
}
