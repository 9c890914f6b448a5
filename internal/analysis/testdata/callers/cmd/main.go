// Command cmd is the fixture's only user of package a.
package main

import (
	"fmt"

	"crystalball/internal/analysis/testdata/callers/a"
)

func main() {
	fmt.Println(a.Shared() + a.Run())
}
