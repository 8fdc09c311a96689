package portals

import "fmt"

// DescribeBody renders a wire-message body for protocol traces. One-sided
// puts are unwrapped to show the protocol-level header they carry — an RPC
// request's or response's inner body type — instead of the transport
// record, so a trace of a write reads "put[storage.writeReq]" rather than
// a wall of "*portals.Event". Unknown bodies fall back to their Go type.
// The body is a record its receiver recycles: describe it while the trace
// hook runs and keep the string, never the body.
func DescribeBody(body interface{}) string {
	ev, ok := body.(*Event)
	if !ok {
		return fmt.Sprintf("%T", body)
	}
	switch ev.kind {
	case wireRequest:
		return fmt.Sprintf("put[%T]", ev.req.Body)
	case wireResponse:
		if ev.resp.Err != nil {
			return fmt.Sprintf("put[%T err]", ev.resp.Body)
		}
		return fmt.Sprintf("put[%T]", ev.resp.Body)
	case wireGet:
		return "get"
	case wireGetReply:
		return "get-reply"
	case wireFreed:
		return "released"
	}
	if ev.Hdr == nil {
		return "put[data]"
	}
	return fmt.Sprintf("put[%T]", ev.Hdr)
}
