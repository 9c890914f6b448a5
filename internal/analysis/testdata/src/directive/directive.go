// Package directive exercises crystal:allow validation: unknown pass names,
// missing reasons and unsuppressible passes are findings themselves, and
// none suppresses.
package directive

import "fmt"

// bad1's directive names a pass that does not exist, so the loop finding
// stands alongside the directive finding.
func bad1(m map[string]int) {
	//crystal:allow(nosuchpass) misspelled pass name
	for k := range m {
		fmt.Println(k)
	}
}

// bad2's directive has no reason, so it neither suppresses nor validates.
func bad2(m map[string]int) {
	//crystal:allow(maporder)
	for k := range m {
		fmt.Println(k)
	}
}

// good's reasoned directive suppresses the loop finding.
func good(m map[string]int) {
	//crystal:allow(maporder) output order is immaterial here
	for k := range m {
		fmt.Println(k)
	}
}

// unselected's directive names a known pass the run did not select: it is
// neither a finding nor a suppression.
func unselected() {
	//crystal:allow(walltime) a pass known to the suite but not run here
	fmt.Println()
}

// rules' directive names a pass that takes no suppressions.
func rules(m map[string]int) {
	//crystal:allow(rules) its exceptions are in its own table
	fmt.Println(len(m))
}
