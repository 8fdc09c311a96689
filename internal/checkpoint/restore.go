package checkpoint

import (
	"bytes"
	"fmt"
	"strings"

	"lwfs/internal/core"
	"lwfs/internal/naming"
	"lwfs/internal/netsim"
	"lwfs/internal/osd"
	"lwfs/internal/portals"
	"lwfs/internal/sim"
	"lwfs/internal/storage"
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

// Manifest describes a restorable checkpoint: one object reference per
// rank.
type Manifest struct {
	Ranks        int
	BytesPerProc int64
	Refs         []storage.ObjRef
}

// decodeMetadata parses a metadata object's content. Only EncodeMetadata's
// own output is accepted: every rank named exactly once, in order, no
// negative size, node or port, and bytes that re-encode identically — so a
// duplicated rank cannot leave another rank's reference zero for Restore to
// chase.
func decodeMetadata(data []byte) (Manifest, error) {
	var m Manifest
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if _, err := fmt.Sscanf(lines[0], "lwfs-checkpoint v1 ranks=%d bytes=%d", &m.Ranks, &m.BytesPerProc); err != nil {
		return Manifest{}, fmt.Errorf("checkpoint: bad metadata header: %w", err)
	}
	if len(lines)-1 != m.Ranks {
		return Manifest{}, fmt.Errorf("checkpoint: header says %d ranks, found %d", m.Ranks, len(lines)-1)
	}
	if m.BytesPerProc < 0 {
		return Manifest{}, fmt.Errorf("checkpoint: negative state size %d", m.BytesPerProc)
	}
	m.Refs = make([]storage.ObjRef, m.Ranks)
	for i, line := range lines[1:] {
		var rank, node, port int
		var id uint64
		if _, err := fmt.Sscanf(line, "%d %d %d %d", &rank, &node, &port, &id); err != nil {
			return Manifest{}, fmt.Errorf("checkpoint: bad metadata line %q: %w", line, err)
		}
		if rank != i {
			return Manifest{}, fmt.Errorf("checkpoint: metadata line %d names rank %d", i+1, rank)
		}
		if node < 0 || port < 0 {
			return Manifest{}, fmt.Errorf("checkpoint: rank %d: bad object reference %q", rank, line)
		}
		m.Refs[rank] = storage.ObjRef{
			Node: netsim.NodeID(node),
			Port: portals.Index(port),
			ID:   osd.ObjectID(id),
		}
	}
	if !bytes.Equal(EncodeMetadata(m.Refs, m.BytesPerProc), data) {
		return Manifest{}, fmt.Errorf("checkpoint: metadata is not in canonical form")
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
	if entry.IsDir {
		return Manifest{}, fmt.Errorf("checkpoint: resolving %s: %w", path, naming.ErrIsDir)
	}
	st, err := c.Stat(p, entry.Refs[0], caps)
	if err != nil {
		return Manifest{}, fmt.Errorf("checkpoint: manifest: %w", err)
	}
	payload, err := c.Read(p, entry.Refs[0], caps, 0, st.Size)
	if err != nil {
		return Manifest{}, fmt.Errorf("checkpoint: manifest: %w", err)
	}
	m, err := decodeMetadata(payload.Data)
	if err != nil {
		return Manifest{}, err
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
