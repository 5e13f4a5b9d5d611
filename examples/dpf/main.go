// DPF example (§4.2): install ten TCP/IP session filters, let DPF compile
// them to machine code, show the generated classifier, and race it
// against the MPF and PATHFINDER interpreters on the same packets.
package main

import (
	"fmt"
	"log"

	"repro/internal/dpf"
	"repro/internal/mem"
	"repro/internal/mips"
)

func main() {
	w := dpf.NewWorkload(10)
	fmt.Printf("installed %d TCP/IP session filters (%d atoms each)\n",
		len(w.Filters), len(w.Filters[0].Atoms))

	engine, err := dpf.NewDPF(mem.DEC5000)
	if err != nil {
		log.Fatal(err)
	}
	if err := engine.Install(w.Filters); err != nil {
		log.Fatal(err)
	}
	fn := engine.Func()
	fmt.Printf("\nDPF compiled the filter set to %d machine words "+
		"(shared prefix evaluated once, ports dispatched through a "+
		"collision-free hash table):\n\n", len(fn.Words))
	backend := mips.New()
	listing := mips.DisasmFunc(backend, fn)
	for i, line := range listing {
		if i >= 28 {
			fmt.Printf("   ... %d more words ...\n", len(listing)-i)
			break
		}
		fmt.Println(line)
	}

	fmt.Println("\nclassifying each session's packet:")
	for i, pkt := range w.Packets {
		id, cycles, err := engine.Classify(pkt)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  packet %d -> filter %2d (%d cycles, %.2f us)\n",
			i, id, cycles, engine.Micros(cycles))
	}

	fmt.Println("\nTable 3 comparison:")
	rows, err := dpf.RunTable3(10, 2000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(dpf.FormatTable3(rows))

	fmt.Println("\nscaling with the number of installed filters:")
	pts, err := dpf.RunScaling([]int{1, 2, 5, 10, 20, 50}, 2000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(dpf.FormatScaling(pts))
}
