// rewrite-catalog accepted pattern: the rule's name is backticked in the
// good tree's DESIGN.md rewrite-rule catalog and quoted in its
// tests/test_rewrite.cc.
class FixtureGoodRule : public RewriteRule {
 public:
  const char* name() const override { return "fixture-good-rule"; }
};
