// rewrite-catalog: both halves of the rule. "fixture-uncataloged" is
// missing from the bad tree's DESIGN.md rewrite-rule catalog;
// "fixture-untested" is cataloged there but never quoted in the bad
// tree's tests/test_rewrite.cc companion.
class FixtureUncatalogedRule : public RewriteRule {
 public:
  const char* name() const override { return "fixture-uncataloged"; }
};

class FixtureUntestedRule : public RewriteRule {
 public:
  const char* name() const override { return "fixture-untested"; }
};
