package a

import "testing"

func TestTestOnly(t *testing.T) {
	if TestOnly()+(record{}).testRead != 1 {
		t.Fatal("TestOnly")
	}
}
