// P4c is the P4 compiler driver: it parses and type-checks a program,
// dumps the compiled IR, and prints the selected backend's resource
// estimate and architectural verdict.
//
//	p4c [-target kind] [-resources] [-verify] program.p4
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"netdebug"
	"netdebug/internal/p4/compile"
	"netdebug/internal/target"
)

var (
	targetName = flag.String("target", "sdnet",
		"backend to load onto ("+strings.Join(target.Kinds, ", ")+")")
	resources = flag.Bool("resources", false, "print the resource estimate")
	runVerify = flag.Bool("verify", false, "run the formal-verification property suite")
)

func main() {
	log.SetFlags(0)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: p4c [flags] program.p4")
		flag.PrintDefaults()
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	prog, err := compile.Compile(string(src))
	if err != nil {
		log.Fatalf("compile failed:\n%v", err)
	}
	fmt.Print(prog.Dump())

	tgt, err := target.ForKind(*targetName)
	if err != nil {
		log.Fatal(err)
	}
	if err := tgt.Load(prog); err != nil {
		log.Fatalf("%s rejects the program: %v", tgt.Name(), err)
	}
	fmt.Printf("target %s: program loads\n", tgt.Name())
	if *resources {
		fmt.Printf("resources: %s\n", tgt.Resources())
	}
	if *runVerify {
		results, err := netdebug.VerifyProgram(string(src))
		if err != nil {
			log.Fatal(err)
		}
		for _, r := range results {
			fmt.Println(r.Detail)
		}
	}
}
