// Cross-package fixture: a request started by a helper in the sibling
// util package is the caller's to complete; whether it is, is decided by
// the summaries resolved across the package boundary. Fixtures only need
// to parse, so the leaked request below can simply go unused.
package a

func leakedAcrossPackages(c *util.Comm) {
	r := util.StartRecv(c) // want "never completed"
}

func completedAcrossPackages(c *util.Comm) {
	r := util.StartRecv(c)
	util.Finish(r)
}
