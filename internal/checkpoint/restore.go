package checkpoint

import (
	"errors"
	"fmt"
	"strings"

	"lwfs/internal/core"
	"lwfs/internal/netsim"
	"lwfs/internal/osd"
	"lwfs/internal/portals"
	"lwfs/internal/sim"
	"lwfs/internal/storage"
	"lwfs/internal/stripe"
)

// The checkpoint metadata object is the dataset's self-description: one
// line per rank naming the object that holds its state. Restart needs
// nothing else — resolve the checkpoint name, read this object, then read
// each rank's state in parallel (§4: the naming service exists "to
// reference the checkpoint data when the application needs to reconstruct
// the process on a restart").

// EncodeMetadata renders the per-rank object references (applications
// implementing their own Figure 8 checkpoint loops reuse the format so
// Restore understands their datasets).
func EncodeMetadata(refs []storage.ObjRef, bytesPerProc int64) []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "lwfs-checkpoint v1 ranks=%d bytes=%d\n", len(refs), bytesPerProc)
	for rank, r := range refs {
		fmt.Fprintf(&b, "%d %d %d %d\n", rank, r.Node, r.Port, uint64(r.ID))
	}
	return []byte(b.String())
}

// EncodeMetadataV2 renders a redundant checkpoint's manifest: one stripe
// layout per rank (each block in stripe.Layout's own wire format, framed by
// a "rank N" line). v1 manifests still decode unchanged.
func EncodeMetadataV2(layouts []stripe.Layout, bytesPerProc int64) []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "lwfs-checkpoint v2 ranks=%d bytes=%d\n", len(layouts), bytesPerProc)
	for rank, l := range layouts {
		fmt.Fprintf(&b, "rank %d\n", rank)
		b.Write(l.Encode())
	}
	return []byte(b.String())
}

// Manifest describes a restorable checkpoint. v1 manifests carry one object
// reference per rank (Refs); v2 redundant manifests carry a stripe layout
// per rank instead (Layouts), and Refs is nil.
type Manifest struct {
	Ranks        int
	BytesPerProc int64
	Refs         []storage.ObjRef
	Layouts      []stripe.Layout
}

// decodeMetadata parses a metadata object's content, either version.
func decodeMetadata(data []byte) (Manifest, error) {
	var m Manifest
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) < 1 {
		return m, fmt.Errorf("checkpoint: empty metadata")
	}
	if strings.HasPrefix(lines[0], "lwfs-checkpoint v2 ") {
		return decodeMetadataV2(lines)
	}
	if _, err := fmt.Sscanf(lines[0], "lwfs-checkpoint v1 ranks=%d bytes=%d", &m.Ranks, &m.BytesPerProc); err != nil {
		return m, fmt.Errorf("checkpoint: bad metadata header: %w", err)
	}
	if len(lines)-1 != m.Ranks {
		return m, fmt.Errorf("checkpoint: header says %d ranks, found %d", m.Ranks, len(lines)-1)
	}
	m.Refs = make([]storage.ObjRef, m.Ranks)
	for _, line := range lines[1:] {
		var rank, node, port int
		var id uint64
		if _, err := fmt.Sscanf(line, "%d %d %d %d", &rank, &node, &port, &id); err != nil {
			return m, fmt.Errorf("checkpoint: bad metadata line %q: %w", line, err)
		}
		if rank < 0 || rank >= m.Ranks {
			return m, fmt.Errorf("checkpoint: rank %d out of range", rank)
		}
		m.Refs[rank] = storage.ObjRef{
			Node: netsim.NodeID(node),
			Port: portals.Index(port),
			ID:   osd.ObjectID(id),
		}
	}
	return m, nil
}

// decodeMetadataV2 parses a redundant manifest: "rank N" lines frame one
// stripe layout block per rank.
func decodeMetadataV2(lines []string) (Manifest, error) {
	var m Manifest
	if _, err := fmt.Sscanf(lines[0], "lwfs-checkpoint v2 ranks=%d bytes=%d", &m.Ranks, &m.BytesPerProc); err != nil {
		return m, fmt.Errorf("checkpoint: bad metadata header: %w", err)
	}
	m.Layouts = make([]stripe.Layout, m.Ranks)
	got := make([]bool, m.Ranks)
	rank, block := -1, []string(nil)
	flush := func() error {
		if rank < 0 {
			return nil
		}
		l, err := stripe.Decode([]byte(strings.Join(block, "\n")))
		if err != nil {
			return fmt.Errorf("checkpoint: rank %d layout: %w", rank, err)
		}
		m.Layouts[rank] = l
		got[rank] = true
		return nil
	}
	for _, line := range lines[1:] {
		var r int
		if _, err := fmt.Sscanf(line, "rank %d", &r); err == nil && strings.HasPrefix(line, "rank ") {
			if err := flush(); err != nil {
				return m, err
			}
			if r < 0 || r >= m.Ranks {
				return m, fmt.Errorf("checkpoint: rank %d out of range", r)
			}
			rank, block = r, nil
			continue
		}
		if rank < 0 {
			return m, fmt.Errorf("checkpoint: layout line %q before any rank", line)
		}
		block = append(block, line)
	}
	if err := flush(); err != nil {
		return m, err
	}
	for r, ok := range got {
		if !ok {
			return m, fmt.Errorf("checkpoint: manifest missing rank %d", r)
		}
	}
	return m, nil
}

// Restore resolves a checkpoint by name, reads its metadata object, and
// verifies every rank's state object is present with the recorded size —
// the restart path of the §4 case study. It returns the manifest so the
// application can read each rank's state (in parallel, with its own
// client processes).
func Restore(p *sim.Proc, c *core.Client, caps core.CapSet, path string) (Manifest, error) {
	entry, err := c.Lookup(p, path)
	if err != nil {
		return Manifest{}, fmt.Errorf("checkpoint: resolving %s: %w", path, err)
	}
	payload, err := readManifest(p, c, caps, entry.AllRefs())
	if err != nil {
		return Manifest{}, err
	}
	m, err := decodeMetadata(payload.Data)
	if err != nil {
		return Manifest{}, err
	}
	if len(m.Layouts) > 0 {
		// v2: individual objects may legitimately be unreachable (that is
		// the scheme's whole point), so presence is not checked per object
		// — RestoreRead's degraded reads are the arbiter. Verify the
		// layouts themselves instead.
		for rank, l := range m.Layouts {
			if err := l.Validate(); err != nil {
				return m, fmt.Errorf("checkpoint: rank %d layout: %w", rank, err)
			}
			if l.Size < m.BytesPerProc {
				return m, fmt.Errorf("checkpoint: rank %d layout truncated: %d < %d",
					rank, l.Size, m.BytesPerProc)
			}
		}
		return m, nil
	}
	for rank, ref := range m.Refs {
		ost, err := c.Stat(p, ref, caps)
		if err != nil {
			return m, fmt.Errorf("checkpoint: rank %d object missing: %w", rank, err)
		}
		if ost.Size < m.BytesPerProc {
			return m, fmt.Errorf("checkpoint: rank %d object truncated: %d < %d",
				rank, ost.Size, m.BytesPerProc)
		}
	}
	return m, nil
}

// readManifest reads the manifest from the first reachable mirror
// (core.ReadMirror; a mirrored redundant dump records every manifest copy in
// the naming entry, legacy checkpoints present exactly one ref). A read
// served by a non-primary mirror is counted in ckpt.manifest.mirror_reads.
func readManifest(p *sim.Proc, c *core.Client, caps core.CapSet, refs []storage.ObjRef) (netsim.Payload, error) {
	payload, skipped, err := core.ReadMirror(refs, func(ref storage.ObjRef) (netsim.Payload, error) {
		st, err := c.Stat(p, ref, caps)
		if err != nil {
			return netsim.Payload{}, err
		}
		return c.Read(p, ref, caps, 0, st.Size)
	})
	if errors.Is(err, core.ErrRanOut) {
		return netsim.Payload{}, fmt.Errorf("checkpoint: no manifest mirror reachable: %w", err)
	}
	if err == nil && skipped > 0 {
		c.Endpoint().Metrics().Scope("ckpt").Scope("manifest").Counter("mirror_reads").Inc()
	}
	return payload, err
}

// RestoreRead reads one rank's checkpointed state: directly from its object
// for v1 manifests, through the stripe engine for v2 — where a dead
// server's objects are reconstructed from the survivors, so a restore
// succeeds as long as each layout is still recoverable.
func RestoreRead(p *sim.Proc, c *core.Client, caps core.CapSet, m Manifest, rank int) (netsim.Payload, error) {
	if rank < 0 || rank >= m.Ranks {
		return netsim.Payload{}, fmt.Errorf("checkpoint: rank %d out of range", rank)
	}
	if len(m.Layouts) > 0 {
		eng := stripe.NewEngine(c, caps, stripe.DefaultWindow)
		return eng.ReadAt(p, m.Layouts[rank], 0, m.BytesPerProc)
	}
	return c.Read(p, m.Refs[rank], caps, 0, m.BytesPerProc)
}
