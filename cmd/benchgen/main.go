// Command benchgen generates the synthetic world and persists its knowledge
// base snapshot as kb.gob, which cmd/aida and cmd/aidaserver load with -kb.
//
// Usage:
//
//	benchgen -out data -entities 2000 -seed 42
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"aida/internal/wiki"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchgen: ")
	var (
		out      = flag.String("out", "data", "output directory")
		entities = flag.Int("entities", 2000, "number of KB entities")
		seed     = flag.Int64("seed", 42, "generation seed")
	)
	flag.Parse()

	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Fatal(err)
	}
	w := wiki.Generate(wiki.Config{Seed: *seed, Entities: *entities})

	kbPath := filepath.Join(*out, "kb.gob")
	f, err := os.Create(kbPath)
	if err != nil {
		log.Fatal(err)
	}
	if err := w.KB.Save(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s (%d entities, %d dictionary names)\n", kbPath, w.KB.NumEntities(), len(w.KB.Names()))
}
