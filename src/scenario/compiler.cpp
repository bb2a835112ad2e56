// Scenario compiler: lowers a parsed DSL program onto mpisim::RankCtx.
//
// Compilation resolves a validated world program once into flat code that
// every rank of the world shares: operators become an enum, variables become
// indices into a per-rank value array (one per definition site -- the DSL
// has no recursion, so a site's slot always holds its innermost live
// binding), request slots become indices in name order, and file path
// templates become indices into a per-rank cache of lazily opened Files.
// Each phase of a rank then runs in one coroutine frame: loops and branches
// push onto an explicit block stack, and statements that cannot suspend
// (let, verify, signal) run inline. The interpreter's arithmetic contract is what makes
// DSL twins bit-identical to hand-written C++ workloads:
//
//   * int op int    -> 64-bit integer, wraparound via unsigned arithmetic
//                      (no UB); `/` truncates like C++; div/mod-by-zero is a
//                      runtime ScenarioError, never a trap.
//   * any double    -> both operands promoted to double, one IEEE op per AST
//                      node. Each node's result round-trips through a Value,
//                      so the evaluator can never fuse mul+add into an FMA --
//                      exactly the non-contracted sequence the hand-written
//                      workloads compile to across statement boundaries.
//   * builtins      -> the same libm/util calls the workloads use
//                      (std::pow, splitmix64), so bit patterns match.
//
// Runtime guards (op budget, positive sizes, finite compute, pending
// requests at program end) throw ScenarioError; the World does not catch
// it, so it surfaces from sim::Simulation::run() with line info intact.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "scenario/instance.hpp"
#include "util/rng.hpp"

namespace iobts::scenario {
namespace {

/// Per-rank interpreted statements; a pure termination backstop far above
/// any scenario the generator or the corpus produces (loops are already
/// capped at 1e6 iterations).
constexpr std::uint64_t kOpBudget = 2'000'000;
/// Pending requests one slot may accumulate before waitall.
constexpr std::size_t kMaxSlotRequests = 4096;
/// Absent expression / block index.
constexpr std::uint32_t kNone = 0xffffffffU;

[[noreturn]] void fail(int line, const std::string& field,
                       const std::string& message) {
  throw ScenarioError(line, field, message);
}

struct Value {
  bool is_int = true;
  std::int64_t i = 0;
  double d = 0.0;

  static Value ofInt(std::int64_t v) { return Value{true, v, 0.0}; }
  static Value ofDouble(double v) { return Value{false, 0, v}; }
  double asDouble() const {
    return is_int ? static_cast<double>(i) : d;
  }
  bool truthy() const { return is_int ? i != 0 : d != 0.0; }
};

// --- compiled form -----------------------------------------------------------

enum class Op : std::uint8_t {
  Literal, Rank, Ranks, Var, Unknown,
  Not, Neg, Ternary, And, Or,
  Eq, Ne, Lt, Le, Gt, Ge,
  BitAnd, BitOr, BitXor, Shl, Shr, Mod,
  Add, Sub, Mul, Div,
  Splitmix, Pow, Min, Max, Abs,
};

/// One expression node. Children and variables are indices; `src` keeps
/// the AST node for diagnostics (line, operator and variable names).
struct Node {
  Op op = Op::Literal;
  std::uint32_t a = kNone, b = kNone, c = kNone;  // children; Var: a = slot
  Value literal;
  const Expr* src = nullptr;
};

struct Instr {
  Stmt::Kind kind = Stmt::Kind::Compute;
  const Stmt* src = nullptr;
  std::uint32_t a = kNone, b = kNone, c = kNone;  // expression roots
  /// Let/Loop: variable; I/O and verify: file template; Wait/WaitAll:
  /// request slot; Signal/Recv: channel.
  std::uint32_t index = 0;
  std::uint32_t slot = 0;  // IWrite/IRead: destination request slot
  std::uint32_t body = kNone, else_body = kNone;  // block indices
};

using Block = std::vector<Instr>;

struct PhaseCode {
  const Phase* src = nullptr;
  std::uint32_t repeat = kNone;  // expression root
  std::uint32_t loop_var = 0;
  std::uint32_t body = kNone;
  std::size_t next = 0;
};

struct Program {
  std::vector<Node> nodes;
  std::vector<Block> blocks;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> globals;  // var, expr
  std::vector<PhaseCode> phases;  // a flat program is one plain phase
  std::uint32_t vars = 0;
  std::size_t depth = 1;  // deepest block nesting
  std::vector<std::string> files;     // path templates
  std::vector<std::string> slots;     // request slot names, sorted
  std::vector<std::string> channels;  // rendezvous channel names
};

Op binaryOp(const std::string& op) {
  static const std::map<std::string, Op> ops = {
      {"&&", Op::And},    {"||", Op::Or},     {"==", Op::Eq},
      {"!=", Op::Ne},     {"<", Op::Lt},      {"<=", Op::Le},
      {">", Op::Gt},      {">=", Op::Ge},     {"&", Op::BitAnd},
      {"|", Op::BitOr},   {"^", Op::BitXor},  {"<<", Op::Shl},
      {">>", Op::Shr},    {"%", Op::Mod},     {"+", Op::Add},
      {"-", Op::Sub},     {"*", Op::Mul},
  };
  const auto it = ops.find(op);
  return it == ops.end() ? Op::Div : it->second;
}

Op callOp(const std::string& name) {
  if (name == "splitmix") return Op::Splitmix;
  if (name == "pow") return Op::Pow;
  if (name == "min") return Op::Min;
  if (name == "max") return Op::Max;
  return Op::Abs;
}

/// Resolves names against a lexical scope stack that mirrors the block
/// nesting the interpreter executes.
class Resolver {
 public:
  Resolver(const ScenarioSpec& spec, const WorldSpec& world, Program& out)
      : out_(out) {
    collectSlots(world.stmts);
    for (const Phase& phase : world.phases) collectSlots(phase.body);
    for (auto& [name, index] : slot_names_) {
      index = static_cast<std::uint32_t>(out_.slots.size());
      out_.slots.push_back(name);
    }

    scopes_.emplace_back();
    for (const Stmt& global : spec.globals) {
      const std::uint32_t expr = compileExpr(*global.a);
      out_.globals.emplace_back(define(global.name), expr);
    }
    if (world.phases.empty()) {
      PhaseCode code;
      code.body = compileBlock(world.stmts);
      code.next = 1;
      out_.phases.push_back(code);
      return;
    }
    std::map<std::string, std::size_t> by_name;
    for (std::size_t i = 0; i < world.phases.size(); ++i) {
      by_name.emplace(world.phases[i].name, i);
    }
    for (std::size_t i = 0; i < world.phases.size(); ++i) {
      const Phase& phase = world.phases[i];
      PhaseCode code;
      code.src = &phase;
      scopes_.emplace_back();
      if (phase.repeat) {
        code.repeat = compileExpr(*phase.repeat);
        code.loop_var = define(phase.loop_var);
      }
      code.body = compileBlock(phase.body);
      scopes_.pop_back();
      // Phase names were resolved and the chain proven acyclic by
      // validation.
      code.next = phase.next.empty() ? i + 1 : by_name.at(phase.next);
      out_.phases.push_back(code);
    }
  }

 private:
  void collectSlots(const std::vector<Stmt>& stmts) {
    for (const Stmt& stmt : stmts) {
      if (!stmt.slot.empty()) slot_names_.emplace(stmt.slot, 0);
      if (stmt.kind == Stmt::Kind::Wait || stmt.kind == Stmt::Kind::WaitAll) {
        slot_names_.emplace(stmt.name, 0);
      }
      collectSlots(stmt.body);
      collectSlots(stmt.else_body);
    }
  }

  std::uint32_t define(const std::string& name) {
    const std::uint32_t slot = out_.vars++;
    scopes_.back().emplace_back(name, slot);
    return slot;
  }

  std::optional<std::uint32_t> lookup(const std::string& name) const {
    for (auto scope = scopes_.rbegin(); scope != scopes_.rend(); ++scope) {
      for (auto binding = scope->rbegin(); binding != scope->rend();
           ++binding) {
        if (binding->first == name) return binding->second;
      }
    }
    return std::nullopt;
  }

  static std::uint32_t intern(std::vector<std::string>& table,
                              const std::string& text) {
    const auto it = std::find(table.begin(), table.end(), text);
    if (it != table.end()) {
      return static_cast<std::uint32_t>(it - table.begin());
    }
    table.push_back(text);
    return static_cast<std::uint32_t>(table.size() - 1);
  }

  std::uint32_t compileExpr(const Expr& expr) {
    Node node;
    node.src = &expr;
    std::uint32_t* const children[3] = {&node.a, &node.b, &node.c};
    for (std::size_t i = 0; i < expr.args.size() && i < 3; ++i) {
      *children[i] = compileExpr(expr.args[i]);
    }
    switch (expr.kind) {
      case Expr::Kind::IntLit:
        node.literal = Value::ofInt(expr.int_value);
        break;
      case Expr::Kind::FloatLit:
        node.literal = Value::ofDouble(expr.float_value);
        break;
      case Expr::Kind::Var:
        if (expr.name == "rank") {
          node.op = Op::Rank;
        } else if (expr.name == "ranks") {
          node.op = Op::Ranks;
        } else if (const auto slot = lookup(expr.name)) {
          node.op = Op::Var;
          node.a = *slot;
        } else {
          // Unreachable after static validation; kept as a hard error at
          // evaluation time, not UB.
          node.op = Op::Unknown;
        }
        break;
      case Expr::Kind::Unary:
        node.op = expr.op == "!" ? Op::Not : Op::Neg;
        break;
      case Expr::Kind::Ternary:
        node.op = Op::Ternary;
        break;
      case Expr::Kind::Binary:
        node.op = binaryOp(expr.op);
        break;
      case Expr::Kind::Call:
        node.op = callOp(expr.name);
        break;
    }
    out_.nodes.push_back(node);
    return static_cast<std::uint32_t>(out_.nodes.size() - 1);
  }

  std::uint32_t compileBlock(const std::vector<Stmt>& stmts) {
    Block block;
    scopes_.emplace_back();
    out_.depth = std::max(out_.depth, scopes_.size());
    for (const Stmt& stmt : stmts) {
      Instr instr;
      instr.kind = stmt.kind;
      instr.src = &stmt;
      if (stmt.a) instr.a = compileExpr(*stmt.a);
      if (stmt.b) instr.b = compileExpr(*stmt.b);
      if (stmt.c) instr.c = compileExpr(*stmt.c);
      switch (stmt.kind) {
        case Stmt::Kind::Let:
          instr.index = define(stmt.name);
          break;
        case Stmt::Kind::Write:
        case Stmt::Kind::Read:
        case Stmt::Kind::Verify:
          instr.index = intern(out_.files, stmt.path);
          break;
        case Stmt::Kind::IWrite:
        case Stmt::Kind::IRead:
          instr.index = intern(out_.files, stmt.path);
          instr.slot = slot_names_.at(stmt.slot);
          break;
        case Stmt::Kind::Wait:
        case Stmt::Kind::WaitAll:
          instr.index = slot_names_.at(stmt.name);
          break;
        case Stmt::Kind::Signal:
        case Stmt::Kind::Recv:
          instr.index = intern(out_.channels, stmt.name);
          break;
        case Stmt::Kind::Loop:
          scopes_.emplace_back();
          instr.index = define(stmt.name);
          instr.body = compileBlock(stmt.body);
          scopes_.pop_back();
          break;
        case Stmt::Kind::If:
          instr.body = compileBlock(stmt.body);
          instr.else_body = compileBlock(stmt.else_body);
          break;
        default:
          break;
      }
      block.push_back(instr);
    }
    scopes_.pop_back();
    out_.blocks.push_back(std::move(block));
    return static_cast<std::uint32_t>(out_.blocks.size() - 1);
  }

  Program& out_;
  std::vector<std::vector<std::pair<std::string, std::uint32_t>>> scopes_;
  std::map<std::string, std::uint32_t> slot_names_;
};

/// One open block on a rank's control stack: the statement to run next
/// and, for a loop body, the loop's variable, iteration and count.
struct Frame {
  const Block* block = nullptr;
  std::size_t pc = 0;
  std::uint32_t var = kNone;
  std::int64_t i = 0;
  std::int64_t count = 0;
  sim::Time before = 0.0;  // clock when the opening statement started
};

struct RankEnv {
  Instance* instance = nullptr;
  const WorldSpec* world = nullptr;
  const Program* program = nullptr;
  mpisim::RankCtx* ctx = nullptr;
  RunStats* stats = nullptr;
  std::int64_t rank = 0;
  std::int64_t ranks = 0;
  std::vector<Value> vars;
  std::vector<std::optional<mpisim::File>> files;
  std::vector<std::vector<mpisim::Request>> slots;
  std::vector<sim::Semaphore*> channels;
  std::vector<Frame> stack;  // open blocks, innermost last
  std::uint64_t ops = 0;

  const std::string& worldName() const { return world->name; }
};

// --- expression evaluation -------------------------------------------------

std::uint64_t u64(std::int64_t v) { return static_cast<std::uint64_t>(v); }
std::int64_t i64(std::uint64_t v) { return static_cast<std::int64_t>(v); }

Value eval(std::uint32_t index, RankEnv& env);

std::int64_t intOperand(const Node& parent, const Value& v,
                        const RankEnv& env) {
  if (!v.is_int) {
    fail(parent.src->line, env.worldName(),
         "operator '" + parent.src->op + "' requires integer operands");
  }
  return v.i;
}

template <class T>
bool compare(Op op, T x, T y) {
  switch (op) {
    case Op::Eq: return x == y;
    case Op::Ne: return x != y;
    case Op::Lt: return x < y;
    case Op::Le: return x <= y;
    case Op::Gt: return x > y;
    default: return x >= y;
  }
}

Value evalBinary(const Node& node, RankEnv& env) {
  // Short-circuit logic first: the untaken side is never evaluated, so a
  // guarded division like `n != 0 && total / n > 1` is safe.
  if (node.op == Op::And || node.op == Op::Or) {
    const bool lhs = eval(node.a, env).truthy();
    if (node.op == Op::And && !lhs) return Value::ofInt(0);
    if (node.op == Op::Or && lhs) return Value::ofInt(1);
    return Value::ofInt(eval(node.b, env).truthy() ? 1 : 0);
  }

  const Value a = eval(node.a, env);
  const Value b = eval(node.b, env);

  switch (node.op) {
    case Op::Eq:
    case Op::Ne:
    case Op::Lt:
    case Op::Le:
    case Op::Gt:
    case Op::Ge: {
      const bool result = a.is_int && b.is_int
                              ? compare(node.op, a.i, b.i)
                              : compare(node.op, a.asDouble(), b.asDouble());
      return Value::ofInt(result ? 1 : 0);
    }
    case Op::BitAnd:
    case Op::BitOr:
    case Op::BitXor:
    case Op::Shl:
    case Op::Shr:
    case Op::Mod: {
      const std::int64_t x = intOperand(node, a, env);
      const std::int64_t y = intOperand(node, b, env);
      if (node.op == Op::BitAnd) return Value::ofInt(i64(u64(x) & u64(y)));
      if (node.op == Op::BitOr) return Value::ofInt(i64(u64(x) | u64(y)));
      if (node.op == Op::BitXor) return Value::ofInt(i64(u64(x) ^ u64(y)));
      if (node.op == Op::Shl || node.op == Op::Shr) {
        if (y < 0 || y > 63) {
          fail(node.src->line, env.worldName(),
               "shift amount must lie in [0, 63], got " + std::to_string(y));
        }
        // Both shifts are logical over the 64-bit pattern (defined for any
        // operand; tags and hashes want the raw bits).
        return Value::ofInt(node.op == Op::Shl ? i64(u64(x) << y)
                                               : i64(u64(x) >> y));
      }
      // Mod
      if (y == 0) {
        fail(node.src->line, env.worldName(), "modulo by zero");
      }
      if (x == std::numeric_limits<std::int64_t>::min() && y == -1) {
        return Value::ofInt(0);
      }
      return Value::ofInt(x % y);
    }
    default:
      break;
  }

  if (a.is_int && b.is_int) {
    const std::int64_t x = a.i, y = b.i;
    if (node.op == Op::Add) return Value::ofInt(i64(u64(x) + u64(y)));
    if (node.op == Op::Sub) return Value::ofInt(i64(u64(x) - u64(y)));
    if (node.op == Op::Mul) return Value::ofInt(i64(u64(x) * u64(y)));
    // Div
    if (y == 0) {
      fail(node.src->line, env.worldName(), "division by zero");
    }
    if (x == std::numeric_limits<std::int64_t>::min() && y == -1) {
      return Value::ofInt(x);  // wraps to itself, like the unsigned negate
    }
    return Value::ofInt(x / y);
  }

  const double x = a.asDouble(), y = b.asDouble();
  if (node.op == Op::Add) return Value::ofDouble(x + y);
  if (node.op == Op::Sub) return Value::ofDouble(x - y);
  if (node.op == Op::Mul) return Value::ofDouble(x * y);
  return Value::ofDouble(x / y);  // IEEE: /0 yields inf/nan, caught at use
}

Value evalCall(const Node& node, RankEnv& env) {
  switch (node.op) {
    case Op::Splitmix: {
      const Value v = eval(node.a, env);
      if (!v.is_int) {
        fail(node.src->line, env.worldName(), "splitmix takes an integer");
      }
      std::uint64_t state = u64(v.i);
      return Value::ofInt(i64(splitmix64(state)));
    }
    case Op::Pow: {
      const double base = eval(node.a, env).asDouble();
      const double exponent = eval(node.b, env).asDouble();
      return Value::ofDouble(std::pow(base, exponent));
    }
    case Op::Min:
    case Op::Max: {
      const Value a = eval(node.a, env);
      const Value b = eval(node.b, env);
      const bool want_min = node.op == Op::Min;
      if (a.is_int && b.is_int) {
        return Value::ofInt(want_min ? std::min(a.i, b.i)
                                     : std::max(a.i, b.i));
      }
      const double x = a.asDouble(), y = b.asDouble();
      return Value::ofDouble(want_min ? std::min(x, y) : std::max(x, y));
    }
    default: {  // Abs
      const Value v = eval(node.a, env);
      if (v.is_int) {
        return Value::ofInt(v.i < 0 ? i64(0u - u64(v.i)) : v.i);
      }
      return Value::ofDouble(std::fabs(v.d));
    }
  }
}

Value eval(std::uint32_t index, RankEnv& env) {
  const Node& node = env.program->nodes[index];
  switch (node.op) {
    case Op::Literal:
      return node.literal;
    case Op::Rank:
      return Value::ofInt(env.rank);
    case Op::Ranks:
      return Value::ofInt(env.ranks);
    case Op::Var:
      return env.vars[node.a];
    case Op::Unknown:
      fail(node.src->line, env.worldName(),
           "unknown variable '" + node.src->name + "'");
    case Op::Not:
      return Value::ofInt(eval(node.a, env).truthy() ? 0 : 1);
    case Op::Neg: {
      const Value v = eval(node.a, env);
      if (v.is_int) return Value::ofInt(i64(0u - u64(v.i)));
      return Value::ofDouble(-v.d);
    }
    case Op::Ternary:
      return eval(node.a, env).truthy() ? eval(node.b, env)
                                        : eval(node.c, env);
    case Op::Splitmix:
    case Op::Pow:
    case Op::Min:
    case Op::Max:
    case Op::Abs:
      return evalCall(node, env);
    default:
      return evalBinary(node, env);
  }
}

// --- conversions at use sites ----------------------------------------------

Seconds asSeconds(const Value& v, int line, const RankEnv& env,
                  const char* noun) {
  const double s = v.asDouble();
  if (!std::isfinite(s) || s < 0.0) {
    fail(line, env.worldName(),
         std::string(noun) + " must be finite and non-negative, got " +
             std::to_string(s));
  }
  return s;
}

Bytes asByteValue(const Value& v, int line, const RankEnv& env,
                  const char* noun, bool require_positive) {
  std::int64_t raw;
  if (v.is_int) {
    raw = v.i;
  } else {
    if (!std::isfinite(v.d) || v.d != std::floor(v.d) ||
        std::fabs(v.d) > 9.0e18) {
      fail(line, env.worldName(),
           std::string(noun) + " must be a whole number of bytes, got " +
               std::to_string(v.d));
    }
    raw = static_cast<std::int64_t>(v.d);
  }
  if (raw < 0 || (require_positive && raw == 0)) {
    fail(line, env.worldName(),
         std::string(noun) + " must be " +
             (require_positive ? "positive" : "non-negative") + ", got " +
             std::to_string(raw));
  }
  return static_cast<Bytes>(raw);
}

pfs::ContentTag asTag(const Value& v, int line, const RankEnv& env) {
  if (!v.is_int) {
    fail(line, env.worldName(), "tag must be an integer");
  }
  return u64(v.i);
}

std::int64_t asLoopCount(const Value& v, int line, const RankEnv& env) {
  if (!v.is_int) {
    fail(line, env.worldName(), "loop count must be an integer");
  }
  if (v.i < 0 || v.i > 1'000'000) {
    fail(line, env.worldName(),
         "loop count must lie in [0, 1000000], got " + std::to_string(v.i));
  }
  return v.i;
}

// --- statement execution ---------------------------------------------------

std::string substitutePath(const std::string& path, int rank) {
  const std::string token = "{rank}";
  std::string out;
  out.reserve(path.size());
  std::size_t pos = 0;
  for (;;) {
    const std::size_t hit = path.find(token, pos);
    if (hit == std::string::npos) {
      out.append(path, pos, std::string::npos);
      return out;
    }
    out.append(path, pos, hit - pos);
    out += std::to_string(rank);
    pos = hit + token.size();
  }
}

/// The rank's File for a path template, opened on first use.
mpisim::File& fileFor(RankEnv& env, std::uint32_t index) {
  std::optional<mpisim::File>& file = env.files[index];
  if (!file) {
    file = env.ctx->open(
        substitutePath(env.program->files[index], env.ctx->rank()));
  }
  return *file;
}

sim::Semaphore& channelFor(RankEnv& env, std::uint32_t index) {
  sim::Semaphore*& channel = env.channels[index];
  if (channel == nullptr) {
    channel = &env.instance->channel(env.program->channels[index],
                                     env.ctx->rank());
  }
  return *channel;
}

std::vector<mpisim::Request>& pushSlot(RankEnv& env, const Instr& instr) {
  std::vector<mpisim::Request>& slot = env.slots[instr.slot];
  if (slot.size() >= kMaxSlotRequests) {
    fail(instr.src->line, env.worldName(),
         "slot '" + instr.src->slot + "' accumulated more than " +
             std::to_string(kMaxSlotRequests) + " pending requests");
  }
  return slot;
}

void chargeOp(RankEnv& env) {
  ++env.ops;
  ++env.stats->ops;
  if (env.ops > kOpBudget) {
    fail(0, env.worldName(),
         "rank " + std::to_string(env.ctx->rank()) + " exceeded the " +
             std::to_string(kOpBudget) + "-statement budget (runaway loop?)");
  }
}

/// Run one phase body (`count` times with `var` as the repeat variable, or
/// once when `var` is kNone) in a single coroutine frame: loops and
/// branches push onto an explicit stack instead of awaiting a child task.
sim::Task<void> runBlock(const Block& root, std::uint32_t var,
                         std::int64_t count, RankEnv& env) {
  const Program& program = *env.program;
  RunStats& stats = *env.stats;
  mpisim::RankCtx& ctx = *env.ctx;
  std::vector<Frame>& stack = env.stack;
  stack.push_back(Frame{&root, 0, var, 0, count, ctx.now()});
  while (!stack.empty()) {
    Frame& frame = stack.back();
    if (frame.pc == frame.block->size()) {
      if (frame.var != kNone && ++frame.i < frame.count) {
        env.vars[frame.var] = Value::ofInt(frame.i);
        frame.pc = 0;
        continue;
      }
      if (ctx.now() < frame.before) stats.time_monotone = false;
      stack.pop_back();
      continue;
    }
    const Instr& instr = (*frame.block)[frame.pc++];
    chargeOp(env);
    const int line = instr.src->line;
    const sim::Time before = ctx.now();
    switch (instr.kind) {
      // Statements that cannot suspend run inline and skip the clock check.
      case Stmt::Kind::Let:
        env.vars[instr.index] = eval(instr.a, env);
        continue;
      case Stmt::Kind::Verify: {
        mpisim::File& file = fileFor(env, instr.index);
        const Bytes offset = asByteValue(eval(instr.a, env), line, env,
                                         "file offset",
                                         /*require_positive=*/false);
        const Bytes len = asByteValue(eval(instr.b, env), line, env,
                                      "byte count", /*require_positive=*/true);
        const pfs::ContentTag tag = asTag(eval(instr.c, env), line, env);
        if (file.verify(offset, len, tag)) {
          ++stats.verified;
        } else {
          ++stats.verify_failures;
        }
        continue;
      }
      case Stmt::Kind::Signal: {
        std::int64_t n = 1;
        if (instr.a != kNone) {
          const Value v = eval(instr.a, env);
          if (!v.is_int || v.i <= 0 || v.i > 1'000'000) {
            fail(line, env.worldName(),
                 "signal count must be a positive integer");
          }
          n = v.i;
        }
        channelFor(env, instr.index).release(static_cast<std::size_t>(n));
        stats.signals += static_cast<std::uint64_t>(n);
        continue;
      }
      case Stmt::Kind::Compute:
        co_await ctx.compute(
            asSeconds(eval(instr.a, env), line, env, "compute duration"));
        break;
      case Stmt::Kind::Barrier:
        ++stats.collectives;
        co_await ctx.barrier();
        break;
      case Stmt::Kind::Bcast:
      case Stmt::Kind::Allreduce: {
        const Bytes bytes = asByteValue(eval(instr.a, env), line, env,
                                        "collective payload",
                                        /*require_positive=*/true);
        ++stats.collectives;
        if (instr.kind == Stmt::Kind::Bcast) {
          co_await ctx.bcast(bytes);
        } else {
          co_await ctx.allreduce(bytes);
        }
        break;
      }
      case Stmt::Kind::Write:
      case Stmt::Kind::Read:
      case Stmt::Kind::IWrite:
      case Stmt::Kind::IRead: {
        mpisim::File& file = fileFor(env, instr.index);
        const Bytes offset = asByteValue(eval(instr.a, env), line, env,
                                         "file offset",
                                         /*require_positive=*/false);
        const Bytes len = asByteValue(eval(instr.b, env), line, env,
                                      "byte count", /*require_positive=*/true);
        ++stats.io_submitted;
        if (instr.kind == Stmt::Kind::Write ||
            instr.kind == Stmt::Kind::IWrite) {
          stats.write_bytes_requested += len;
          const pfs::ContentTag tag =
              instr.c != kNone ? asTag(eval(instr.c, env), line, env) : 0;
          if (instr.kind == Stmt::Kind::Write) {
            co_await file.writeAt(offset, len, tag);
          } else {
            std::vector<mpisim::Request>& slot = pushSlot(env, instr);
            slot.push_back(co_await file.iwriteAt(offset, len, tag));
          }
        } else {
          stats.read_bytes_requested += len;
          if (instr.kind == Stmt::Kind::Read) {
            co_await file.readAt(offset, len);
          } else {
            std::vector<mpisim::Request>& slot = pushSlot(env, instr);
            slot.push_back(co_await file.ireadAt(offset, len));
          }
        }
        break;
      }
      case Stmt::Kind::Wait: {
        std::vector<mpisim::Request>& slot = env.slots[instr.index];
        if (slot.empty()) break;  // like `if (req.valid()) wait(req)`
        if (slot.size() > 1) {
          fail(line, env.worldName(),
               "slot '" + instr.src->name + "' holds " +
                   std::to_string(slot.size()) +
                   " pending requests; use waitall");
        }
        co_await ctx.wait(slot.front());
        if (slot.front().failed()) ++stats.failed_requests;
        slot.clear();
        break;
      }
      case Stmt::Kind::WaitAll: {
        std::vector<mpisim::Request>& slot = env.slots[instr.index];
        if (slot.empty()) break;
        co_await ctx.waitAll(std::span<mpisim::Request>(slot));
        for (const mpisim::Request& request : slot) {
          if (request.failed()) ++stats.failed_requests;
        }
        slot.clear();
        break;
      }
      case Stmt::Kind::Recv:
        co_await ctx.recv(channelFor(env, instr.index));
        ++stats.recvs;
        break;
      case Stmt::Kind::Loop: {
        const std::int64_t n = asLoopCount(eval(instr.a, env), line, env);
        env.vars[instr.index] = Value::ofInt(0);
        if (n > 0) {
          // Invalidates `frame`; the loop statement completes when the
          // pushed frame pops.
          stack.push_back(
              Frame{&program.blocks[instr.body], 0, instr.index, 0, n, before});
        }
        continue;
      }
      case Stmt::Kind::If:
        stack.push_back(
            Frame{&program.blocks[eval(instr.a, env).truthy()
                                      ? instr.body
                                      : instr.else_body],
                  0, kNone, 0, 0, before});
        continue;
      default:
        fail(line, env.worldName(), "corrupt compiled statement");
    }
    if (ctx.now() < before) stats.time_monotone = false;
  }
}

sim::Task<void> runProgram(Instance* instance, const WorldSpec* world,
                           std::shared_ptr<const Program> program,
                           mpisim::RankCtx& ctx) {
  RankEnv env;
  env.instance = instance;
  env.world = world;
  env.program = program.get();
  env.ctx = &ctx;
  env.stats = &instance->stats();
  env.rank = ctx.rank();
  env.ranks = ctx.size();
  env.vars.resize(program->vars);
  env.files.resize(program->files.size());
  env.slots.resize(program->slots.size());
  env.channels.resize(program->channels.size(), nullptr);
  env.stack.reserve(program->depth);

  // Global lets, evaluated per rank in order.
  for (const auto& [var, expr] : program->globals) {
    chargeOp(env);
    env.vars[var] = eval(expr, env);
  }

  std::size_t at = 0;
  while (at < program->phases.size()) {
    const PhaseCode& phase = program->phases[at];
    const Block& body = program->blocks[phase.body];
    if (phase.repeat == kNone) {
      co_await runBlock(body, kNone, 0, env);
    } else if (const std::int64_t count = asLoopCount(
                   eval(phase.repeat, env), phase.src->line, env);
               count > 0) {
      env.vars[phase.loop_var] = Value::ofInt(0);
      co_await runBlock(body, phase.loop_var, count, env);
    }
    at = phase.next;
  }

  // Slots are indexed in name order: the first one reported is the first
  // non-empty slot by name.
  for (std::size_t i = 0; i < env.slots.size(); ++i) {
    if (!env.slots[i].empty()) {
      fail(0, world->name,
           "rank " + std::to_string(ctx.rank()) + " ended with " +
               std::to_string(env.slots[i].size()) +
               " unwaited request(s) in slot '" + program->slots[i] + "'");
    }
  }
}

}  // namespace

mpisim::World::RankProgram compileProgram(Instance& instance,
                                          const WorldSpec& world) {
  auto program = std::make_shared<Program>();
  Resolver resolver(instance.spec(), world, *program);
  Instance* inst = &instance;
  const WorldSpec* spec = &world;
  std::shared_ptr<const Program> code = std::move(program);
  return [inst, spec, code](mpisim::RankCtx& ctx) -> sim::Task<void> {
    return runProgram(inst, spec, code, ctx);
  };
}

}  // namespace iobts::scenario
