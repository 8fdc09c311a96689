// Quickstart: boot a simulated LWFS system, authenticate, create a
// container, acquire capabilities, store and retrieve an object, and give
// it a name — the whole §3 API surface in one sitting.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"lwfs"
)

func main() {
	// A small machine: 1 admin node, 2 storage nodes x 2 servers, 4
	// compute nodes (the paper's dev cluster, shrunk).
	spec := lwfs.DevCluster()
	spec.ComputeNodes = 4
	spec = spec.WithServers(4)
	cl := lwfs.NewCluster(spec)
	cl.RegisterUser("ada", "hunter2")
	sys := cl.DeployLWFS()
	client := cl.NewClient(sys, 0)

	cl.Spawn("quickstart", func(p *lwfs.Proc) {
		// GETCREDS: authenticate against the external mechanism.
		if err := client.Login(p, "ada", "hunter2"); err != nil {
			log.Fatalf("login: %v", err)
		}
		fmt.Println("authenticated as ada (credential is opaque and transferable)")

		// CREATECONTAINER + GETCAPS: coarse-grained authorization.
		cid, err := client.CreateContainer(p)
		if err != nil {
			log.Fatalf("container: %v", err)
		}
		caps, err := client.GetCaps(p, cid, lwfs.AllOps...)
		if err != nil {
			log.Fatalf("caps: %v", err)
		}
		fmt.Printf("container %d created; %d capabilities in hand\n", cid, len(caps.Caps))

		// CREATEOBJ + write (the storage server *pulls* the data) + read
		// (the server *pushes* it back).
		ref, err := client.CreateObject(p, client.Server(1), caps)
		if err != nil {
			log.Fatalf("create: %v", err)
		}
		message := []byte("direct, capability-checked access to object storage")
		if _, err := client.Write(p, ref, caps, 0, lwfs.Bytes(message)); err != nil {
			log.Fatalf("write: %v", err)
		}
		back, err := client.Read(p, ref, caps, 0, int64(len(message)))
		if err != nil {
			log.Fatalf("read: %v", err)
		}
		fmt.Printf("round trip through server %d: %q\n", ref.Node, back.Data)

		// Naming is a service *above* the core: one entry for the dataset.
		if err := client.Mkdir(p, "/datasets"); err != nil {
			log.Fatalf("mkdir: %v", err)
		}
		if err := client.CreateName(p, "/datasets/quickstart", ref, nil); err != nil {
			log.Fatalf("name: %v", err)
		}
		entry, err := client.Lookup(p, "/datasets/quickstart")
		if err != nil {
			log.Fatalf("lookup: %v", err)
		}
		fmt.Printf("named it %s -> object %d on node %d\n", entry.Path, entry.Refs[0].ID, entry.Refs[0].Node)

		st, err := client.Stat(p, ref, caps)
		if err != nil {
			log.Fatalf("stat: %v", err)
		}
		fmt.Printf("object size %d bytes, modified at virtual time %v\n", st.Size, st.Modified)
		fmt.Printf("simulated wall clock consumed: %v\n", p.Now())
	})

	if err := cl.Run(); err != nil {
		log.Fatal(err)
	}
}
