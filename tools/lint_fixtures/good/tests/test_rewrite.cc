// Companion rule-tester stub for rewrite/good_rule.cc: every rewrite rule
// must be exercised here by name.
const char* kFixtureTestedRule = "fixture-good-rule";
