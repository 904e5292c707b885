#include "prop/formula.h"

#include <algorithm>

namespace diffc::prop {

FormulaPtr Formula::Const(bool value) {
  auto f = std::shared_ptr<Formula>(new Formula());
  f->kind_ = FormulaKind::kConst;
  f->const_value_ = value;
  return f;
}

FormulaPtr Formula::Var(int var) {
  auto f = std::shared_ptr<Formula>(new Formula());
  f->kind_ = FormulaKind::kVar;
  f->var_ = var;
  return f;
}

FormulaPtr Formula::Not(FormulaPtr child) {
  auto f = std::shared_ptr<Formula>(new Formula());
  f->kind_ = FormulaKind::kNot;
  f->children_.push_back(std::move(child));
  return f;
}

FormulaPtr Formula::And(std::vector<FormulaPtr> children) {
  auto f = std::shared_ptr<Formula>(new Formula());
  f->kind_ = FormulaKind::kAnd;
  f->children_ = std::move(children);
  return f;
}

FormulaPtr Formula::Or(std::vector<FormulaPtr> children) {
  auto f = std::shared_ptr<Formula>(new Formula());
  f->kind_ = FormulaKind::kOr;
  f->children_ = std::move(children);
  return f;
}

FormulaPtr Formula::Implies(FormulaPtr a, FormulaPtr b) {
  return Or({Not(std::move(a)), std::move(b)});
}

FormulaPtr Formula::AndOfVars(Mask vars) {
  std::vector<FormulaPtr> children;
  ForEachBit(vars, [&](int b) { children.push_back(Var(b)); });
  return And(std::move(children));
}

bool Formula::Eval(Mask assignment) const {
  switch (kind_) {
    case FormulaKind::kConst:
      return const_value_;
    case FormulaKind::kVar:
      return (assignment >> var_) & 1;
    case FormulaKind::kNot:
      return !children_[0]->Eval(assignment);
    case FormulaKind::kAnd:
      for (const FormulaPtr& c : children_) {
        if (!c->Eval(assignment)) return false;
      }
      return true;
    case FormulaKind::kOr:
      for (const FormulaPtr& c : children_) {
        if (c->Eval(assignment)) return true;
      }
      return false;
  }
  return false;
}

int Formula::MaxVar() const {
  switch (kind_) {
    case FormulaKind::kConst:
      return -1;
    case FormulaKind::kVar:
      return var_;
    default: {
      int mx = -1;
      for (const FormulaPtr& c : children_) mx = std::max(mx, c->MaxVar());
      return mx;
    }
  }
}

std::string Formula::ToString(const Universe& u) const {
  switch (kind_) {
    case FormulaKind::kConst:
      return const_value_ ? "true" : "false";
    case FormulaKind::kVar:
      return u.name(var_);
    case FormulaKind::kNot: {
      std::string out = "!";
      out += children_[0]->ToString(u);
      return out;
    }
    case FormulaKind::kAnd:
    case FormulaKind::kOr: {
      if (children_.empty()) return kind_ == FormulaKind::kAnd ? "true" : "false";
      std::string sep = kind_ == FormulaKind::kAnd ? " & " : " | ";
      std::string out = "(";
      for (size_t i = 0; i < children_.size(); ++i) {
        if (i > 0) out += sep;
        out += children_[i]->ToString(u);
      }
      out += ")";
      return out;
    }
  }
  return "?";
}

}  // namespace diffc::prop
