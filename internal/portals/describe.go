package portals

import "fmt"

// DescribeBody renders a wire-message body for protocol traces. One-sided
// puts are unwrapped, cell and all, to show the type of the protocol-level
// header they carry — an RPC request's or reply's value, or a Put header —
// instead of the transport record, so a trace of a write reads
// "put[storage.writeReq]" rather than a wall of "*portals.Event". An error
// reply reads "put[<nil> err]". Unknown bodies fall back to their Go type.
// The body is a record its receiver recycles: describe it while the trace
// hook runs and keep the string, never the body.
func DescribeBody(body interface{}) string {
	ev, ok := body.(*Event)
	if !ok {
		return fmt.Sprintf("%T", body)
	}
	switch ev.kind {
	case wireRequest:
		return "put[" + describeCell(ev.body) + "]"
	case wireResponse:
		if ev.err != nil {
			return "put[<nil> err]"
		}
		return "put[" + describeCell(ev.body) + "]"
	case wireGet:
		return "get"
	case wireGetReply:
		return "get-reply"
	case wireFreed:
		return "released"
	}
	if ev.body == nil {
		return "put[data]"
	}
	return "put[" + describeCell(ev.body) + "]"
}

// describeCell names the type of the value a cell holds; no cell is <nil>.
func describeCell(b body) string {
	if b == nil {
		return "<nil>"
	}
	return b.typeName()
}
