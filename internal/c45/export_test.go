package c45

// SetPoisonReleased switches the poisoning of released stack memory on or
// off, for the c45_test package.
func SetPoisonReleased(on bool) { poisonReleased = on }

// PresortedListsMatchNodeSort runs TestPresortedListsMatchNodeSort from the
// c45_test package.
var PresortedListsMatchNodeSort = TestPresortedListsMatchNodeSort
