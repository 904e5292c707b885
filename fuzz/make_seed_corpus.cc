// Generates the seed corpora for the fuzz targets: golden frames produced
// by the real encoders — the same messages the wire tests pin — so
// coverage starts inside the accepting region instead of spending its
// budget rediscovering the header format, plus structured instances for
// the rewrite, decide and witness targets. Run as:
//
//   make_seed_corpus OUT_DIR
//
// writing OUT_DIR/<target>/<seed-name>. The build invokes this into the
// build tree; the committed regression corpus under fuzz/corpus/ is
// separate and append-only (minimized reproducers of fixed findings).

#include <sys/stat.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/implication.h"
#include "core/parser.h"
#include "core/premise_masks.h"
#include "lattice/universe.h"
#include "net/wire.h"
#include "prop/tautology.h"
#include "test_helpers.h"

using namespace diffc;
using namespace diffc::net;

namespace {

std::string g_out_root;

void WriteSeed(const std::string& target, const std::string& name,
               const std::vector<std::uint8_t>& bytes) {
  const std::string dir = g_out_root + "/" + target;
  ::mkdir(g_out_root.c_str(), 0755);
  ::mkdir(dir.c_str(), 0755);
  std::ofstream out(dir + "/" + name, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    std::fprintf(stderr, "make_seed_corpus: cannot write %s/%s\n", dir.c_str(), name.c_str());
    std::exit(1);
  }
}

void WriteText(const std::string& target, const std::string& name, const std::string& text) {
  WriteSeed(target, name, std::vector<std::uint8_t>(text.begin(), text.end()));
}

// Payload prefixed with the structure-aware targets' selector byte.
std::vector<std::uint8_t> WithSelector(std::uint8_t selector, const Frame& f) {
  std::vector<std::uint8_t> bytes;
  bytes.push_back(selector);
  bytes.insert(bytes.end(), f.payload.begin(), f.payload.end());
  return bytes;
}

// An instance in fuzz_decide's byte format: byte 0 picks n (1 + b % 12);
// then the goal and each premise as a 2-byte little-endian lhs mask, a
// member-count byte and 2 bytes per member.
std::vector<std::uint8_t> DecideInstance(int n, const DifferentialConstraint& goal,
                                         const ConstraintSet& premises) {
  if (n < 1 || n > 12 || premises.size() > 24) {
    std::fprintf(stderr, "make_seed_corpus: decide instance out of range\n");
    std::exit(1);
  }
  std::vector<std::uint8_t> bytes{static_cast<std::uint8_t>(n - 1)};
  auto put_mask = [&bytes](Mask m) {
    bytes.push_back(static_cast<std::uint8_t>(m & 0xff));
    bytes.push_back(static_cast<std::uint8_t>((m >> 8) & 0xff));
  };
  auto put = [&](const DifferentialConstraint& c) {
    if (c.rhs().size() > 7) {
      std::fprintf(stderr, "make_seed_corpus: decide family over 7 members\n");
      std::exit(1);
    }
    put_mask(c.lhs().bits());
    bytes.push_back(static_cast<std::uint8_t>(c.rhs().size()));
    for (const ItemSet& m : c.rhs().members()) put_mask(m.bits());
  };
  put(goal);
  for (const DifferentialConstraint& c : premises) put(c);
  return bytes;
}

// An instance in fuzz_witness's byte format: byte 0 picks n (1 + b % 64),
// byte 1 is the leaf budget, then a position count, one byte per position,
// and a 2-byte little-endian selector over the positions per member.
std::vector<std::uint8_t> WitnessInstance(int n, std::uint8_t budget,
                                          const std::vector<int>& positions,
                                          const std::vector<unsigned>& selectors) {
  if (n < 1 || n > 64 || positions.size() > 12) {
    std::fprintf(stderr, "make_seed_corpus: witness instance out of range\n");
    std::exit(1);
  }
  std::vector<std::uint8_t> bytes{static_cast<std::uint8_t>(n - 1), budget,
                                  static_cast<std::uint8_t>(positions.size())};
  for (int p : positions) bytes.push_back(static_cast<std::uint8_t>(p));
  for (unsigned selector : selectors) {
    bytes.push_back(static_cast<std::uint8_t>(selector & 0xff));
    bytes.push_back(static_cast<std::uint8_t>((selector >> 8) & 0xff));
  }
  return bytes;
}

TraceContext SampleTrace() {
  TraceContext t;
  t.trace_id_hi = 0x0123456789abcdefULL;
  t.trace_id_lo = 0xfedcba9876543210ULL;
  t.parent_span_id = 0x1122334455667788ULL;
  t.sampled = true;
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: make_seed_corpus OUT_DIR\n");
    return 1;
  }
  g_out_root = argv[1];

  const Universe u = Universe::Letters(4);
  RegisterPremisesMsg reg;
  reg.n = 4;
  reg.premises = PremiseMasks::Compile(*ParseConstraintSet(u, "A -> {B}; AB -> {C, BC}"));
  reg.trace = SampleTrace();

  CheckBatchMsg batch;
  batch.handle = 7;
  batch.deadline_ms = 250;
  batch.nonce = 0xdeadbeef;
  batch.n = 4;
  batch.goals = *ParseConstraintSet(u, "A -> {C}; C -> {A}; 0 -> {D}");
  batch.trace = SampleTrace();

  BatchResultMsg result;
  result.results.resize(3);
  result.results[0].verdict = 1;
  result.results[1].verdict = 2;
  result.results[1].has_counterexample = true;
  result.results[1].counterexample = 0b1010;
  result.results[2].status_code = StatusCode::kDeadlineExceeded;
  result.results[2].status_message = "query deadline exceeded";
  result.stats.queries = 3;
  result.stats.implied = 1;
  result.stats.not_implied = 1;
  result.stats.failed = 1;
  result.stats.batch_wall_ns = 123456;
  result.trace = SampleTrace();

  RegisterOkMsg reg_ok;
  reg_ok.handle = 7;
  reg_ok.canonical_constraints = 2;
  reg_ok.trace = SampleTrace();

  PingMsg ping;
  ping.nonce = 42;
  OverloadedMsg overloaded;
  overloaded.retry_after_ms = 100;
  const ErrorMsg error{StatusCode::kNotFound, "unknown handle 9"};

  // ---- read_frame: whole serialized frames (and adversarial cut-downs).
  WriteSeed("read_frame", "ping", SerializeFrame(EncodePing(ping)));
  WriteSeed("read_frame", "register_v3", SerializeFrame(EncodeRegisterPremises(reg)));
  WriteSeed("read_frame", "check_batch_v3", SerializeFrame(EncodeCheckBatch(batch)));
  WriteSeed("read_frame", "batch_result_v3", SerializeFrame(EncodeBatchResult(result)));
  WriteSeed("read_frame", "error", SerializeFrame(EncodeError(error)));
  WriteSeed("read_frame", "overloaded", SerializeFrame(EncodeOverloaded(overloaded)));
  {
    // Two frames back-to-back: framing must resynchronize.
    std::vector<std::uint8_t> two = SerializeFrame(EncodePing(ping));
    const std::vector<std::uint8_t> second = SerializeFrame(EncodeCheckBatch(batch));
    two.insert(two.end(), second.begin(), second.end());
    WriteSeed("read_frame", "two_frames", two);
    // A frame cut mid-payload: must decode as truncation.
    std::vector<std::uint8_t> cut = SerializeFrame(EncodeRegisterPremises(reg));
    cut.resize(cut.size() - 3);
    WriteSeed("read_frame", "truncated_payload", cut);
    // A frame labelled with a version this build does not speak: must be
    // rejected at the header.
    Frame stale = EncodeRegisterPremises(reg);
    stale.version = kWireVersion - 1;
    WriteSeed("read_frame", "wrong_version", SerializeFrame(stale));
  }

  // ---- request_decode: selector byte (bit 0 picks the type; bit 1 is
  // ignored) + raw payload.
  WriteSeed("request_decode", "register_v3", WithSelector(2, EncodeRegisterPremises(reg)));
  WriteSeed("request_decode", "check_batch_v3", WithSelector(3, EncodeCheckBatch(batch)));
  {
    // A deadline past `kMaxDeadlineMs`: the decoder must reject it.
    CheckBatchMsg endless = batch;
    endless.deadline_ms = ~std::uint64_t{0};
    WriteSeed("request_decode", "check_batch_deadline_max",
              WithSelector(3, EncodeCheckBatch(endless)));
  }
  {
    // A -> {BC, B, BC}; AB -> {C}: a family out of order and with a
    // duplicate, which the decoder must sort and deduplicate into the
    // arena `Compile` builds for the same set.
    RegisterPremisesMsg unsorted = reg;
    unsorted.premises.premises = {{.lhs = 0b0001, .begin = 0, .end = 3},
                                  {.lhs = 0b0011, .begin = 3, .end = 4}};
    unsorted.premises.members = {0b0110, 0b0010, 0b0110, 0b0100};
    WriteSeed("request_decode", "register_unsorted_dup",
              WithSelector(2, EncodeRegisterPremises(unsorted)));
  }

  // ---- reply_decode: selector % 5 picks the codec; bit 3 is ignored.
  WriteSeed("reply_decode", "pong", WithSelector(0, EncodePong(ping)));
  WriteSeed("reply_decode", "register_ok_v3", WithSelector(9, EncodeRegisterOk(reg_ok)));
  WriteSeed("reply_decode", "batch_result_v3", WithSelector(10, EncodeBatchResult(result)));
  WriteSeed("reply_decode", "overloaded", WithSelector(3, EncodeOverloaded(overloaded)));
  WriteSeed("reply_decode", "error", WithSelector(4, EncodeError(error)));

  // ---- http_head: the observability surface's real request shapes.
  WriteText("http_head", "metrics", "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
  WriteText("http_head", "tracez_filtered",
            "GET /tracez?trace_id=0123456789abcdeffedcba9876543210&status=ok&min_ms=1.5&"
            "limit=8 HTTP/1.1\r\n\r\n");
  WriteText("http_head", "statusz", "GET /statusz HTTP/1.1\r\n\r\n");
  WriteText("http_head", "post", "POST /metrics HTTP/1.1\r\n\r\n");
  WriteText("http_head", "malformed", "NONSENSE\r\n\r\n");
  WriteText("http_head", "not_http", "\x16\x03\x01\x02\x00");  // TLS ClientHello prefix

  // ---- rewrite: byte 0 picks n (2 + b % 7); then per constraint an lhs
  // byte, a member-count byte (low 2 bits + 1), and the member bytes. Seeds
  // plant one redundancy per rule so coverage starts with every rule firing,
  // plus shapes the canonical set keeps.
  WriteSeed("rewrite", "trivial",  // {A,B} -> {{A}} (member ⊆ lhs).
            {2, 0b0011, 0, 0b0001});
  WriteSeed("rewrite", "nested_members",  // A -> {{B}, {B,C}}: non-minimal.
            {2, 0b0001, 1, 0b0010, 0b0110});
  WriteSeed("rewrite", "lhs_overlap",  // {A,B} -> {{B,C}}: kept as it is.
            {2, 0b0011, 0, 0b0110});
  WriteSeed("rewrite", "augmented_pair",  // A -> {{C}} absorbs {A,B} -> {{C}}.
            {2, 0b0001, 0, 0b0100, 0b0011, 0, 0b0100});
  WriteSeed("rewrite", "same_lhs_pair",  // A -> {{B}}, A -> {{C}}: both kept.
            {2, 0b0001, 0, 0b0010, 0b0001, 0, 0b0100});
  // n=4: A -> {{A,B}, {A,B,D}} minimizes to A -> {{A,B}}, which sorts
  // before A -> {{A,B}, {B,C}}; the two then absorb each other, and the one
  // pass keeps A -> {{A,B}, {B,C}}, the premise that sorted first.
  WriteSeed("rewrite", "reordered_same_lhs_pair",
            {2, 0b0001, 1, 0b0011, 0b1011, 0b0001, 1, 0b0011, 0b0110});
  WriteSeed("rewrite", "empty_member",  // A -> {∅}: trivial via ∅ ⊆ U.
            {2, 0b0001, 0, 0b0000});
  WriteSeed("rewrite", "n8_mixed",  // n=8, wider masks, three constraints.
            {6, 0x0f, 1, 0xf0, 0x3c, 0x81, 0, 0x42, 0x0f, 2, 0xf0, 0x3c, 0x81});

  // ---- decide: Prop. 5.5 reductions (PHP(h+1, h) refuted by the kernel in
  // 2·h! − 1 nodes; a random 3-DNF), an FD-subclass set, and inconclusive
  // interval covers on both sides of the kernel's seeding guard, so every
  // decider, oracle and search path starts from a reachable instance.
  for (int holes : {2, 3}) {
    const prop::DnfFormula php = testing::PigeonholeDnf(holes);
    WriteSeed("decide", "php" + std::to_string(holes + 1) + "_" + std::to_string(holes),
              DecideInstance(php.num_vars, TautologyGoal(), DnfTautologyReduction(php)));
  }
  {
    const prop::DnfFormula dnf = prop::RandomDnf(8, 20, 3, 42);
    WriteSeed("decide", "random_dnf",
              DecideInstance(dnf.num_vars, TautologyGoal(), DnfTautologyReduction(dnf)));
  }
  {
    // A -> {B}, B -> {C}, CD -> {E} does not imply A -> {E}: the closure
    // of A is ABC, the counterexample the FD procedure returns.
    const Universe u6 = Universe::Letters(6);
    WriteSeed("decide", "fd_not_implied",
              DecideInstance(6, ParseConstraintSet(u6, "A -> {E}")->front(),
                             *ParseConstraintSet(u6, "A -> {B}; B -> {C}; CD -> {E}")));
  }
  {
    // C -> {BDE} is implied, but no single premise covers its B and E
    // intervals (Σ 2^−|W| = 1): the kernel searches just those two.
    const Universe u5 = Universe::Letters(5);
    WriteSeed("decide", "two_uncovered_intervals",
              DecideInstance(5, ParseConstraintSet(u5, "C -> {BDE}")->front(),
                             *ParseConstraintSet(u5, "C -> {ABD, ACDE}; CD -> {ABCDE}")));
  }
  {
    // ∅ -> {ABC} leaves all three singleton intervals uncovered: Σ 2^−|W|
    // = 3/2 > 1, so the kernel searches unseeded.
    const Universe u4 = Universe::Letters(4);
    WriteSeed("decide", "three_singleton_intervals",
              DecideInstance(4, ParseConstraintSet(u4, "0 -> {ABC}")->front(),
                             *ParseConstraintSet(u4, "0 -> {A, B}; D -> {ABCD}; B -> {C, AC}")));
  }
  {
    // A -> {BC, D} absorbs AE -> {BC, CE, D} (augmentation by E, addition
    // of CE): interval cover answers implied before any witness search.
    const Universe u5 = Universe::Letters(5);
    WriteSeed("decide", "absorbed_by_one_premise",
              DecideInstance(5, ParseConstraintSet(u5, "AE -> {BC, CE, D}")->front(),
                             *ParseConstraintSet(u5, "A -> {BC, D}; BD -> {E}")));
  }
  {
    // A -> {BC, D} has the intervals [A, AC] (W = BD) and [A, AB] (W = CD):
    // each premise covers one, and neither absorbs the goal.
    const Universe u4 = Universe::Letters(4);
    WriteSeed("decide", "covered_only_together",
              DecideInstance(4, ParseConstraintSet(u4, "A -> {BC, D}")->front(),
                             *ParseConstraintSet(u4, "A -> {B, D}; A -> {C, D}")));
  }
  {
    // ∅ -> {AB, C} has the intervals [∅, BD] (W = AC) and [∅, AD]
    // (W = BC), in that order. The premise covers the first, and AD, the
    // second's top, is outside L(C): the counterexample.
    const Universe u4 = Universe::Letters(4);
    WriteSeed("decide", "first_interval_covered_second_refuted",
              DecideInstance(4, ParseConstraintSet(u4, "0 -> {AB, C}")->front(),
                             *ParseConstraintSet(u4, "0 -> {A, C}")));
  }

  // ---- witness: families over a few positions, with the leaf budget
  // below, at and above the search's leaf count.
  WriteSeed("witness", "paper_example",  // {B, CD}: minimal witnesses BC, BD.
            WitnessInstance(4, 255, {1, 2, 3}, {0b001, 0b110}));
  WriteSeed("witness", "disjoint_pairs_over_budget",  // 8 leaves, budget 7.
            WitnessInstance(16, 7, {0, 1, 2, 3, 4, 5}, {0b11, 0b1100, 0b110000}));
  WriteSeed("witness", "nested_repeated_empty",  // A superset, a repeat, then ∅.
            WitnessInstance(8, 4, {0, 1, 2, 3}, {0b0011, 0b0111, 0b0011, 0b1100, 0}));
  WriteSeed("witness", "n64_high_bits",  // Positions 63, 62, 40 and 0.
            WitnessInstance(64, 255, {63, 62, 40, 0}, {0b0011, 0b0110, 0b1001}));
  WriteSeed("witness", "empty_family",  // W(∅) = {∅}: one leaf, budget 0.
            WitnessInstance(5, 0, {}, {}));
  WriteSeed("witness", "shared_bits",  // Overlapping members reach leaves twice.
            WitnessInstance(6, 255, {0, 1, 2, 3, 4}, {0b00011, 0b00110, 0b01001, 0b10100}));

  // ---- text_parser: leading universe-size byte + constraint text.
  WriteText("text_parser", "basic", std::string(1, 4) + "A -> {B}; AB -> {C, BC}");
  WriteText("text_parser", "empty_family", std::string(1, 4) + "AB -> {}");
  WriteText("text_parser", "zero_lhs", std::string(1, 4) + "0 -> {C}");
  WriteText("text_parser", "empty_set", std::string(1, 4));
  WriteText("text_parser", "garbage", std::string(1, 3) + "A -> -> {B}");

  std::fprintf(stderr, "make_seed_corpus: wrote seeds under %s\n", g_out_root.c_str());
  return 0;
}
