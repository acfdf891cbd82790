package main

import "fixture/internal/lib"

type mer interface{ M() }

func main() {
	var m mer = lib.Used()
	m.M()
}
