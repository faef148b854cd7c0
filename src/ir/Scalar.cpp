//===- Scalar.cpp - Symbolic scalar expressions -----------------------------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The hash-consing machinery behind ScalarExpr. Nodes are allocated from a
/// process-global pool (released only at exit, so handles outlive the
/// worker threads that built them) and deduplicated through per-thread
/// intern tables (no locking on the construction hot path; a lock is taken
/// only when a thread sees a structurally new expression). Two threads can
/// therefore hold distinct nodes for one expression — equals() falls back
/// to a structural walk with pointer short-circuits for exactly that case.
///
//===----------------------------------------------------------------------===//

#include "ir/Scalar.h"

#include "support/Format.h"

#include <algorithm>
#include <array>
#include <deque>
#include <mutex>
#include <numeric>
#include <unordered_map>
#include <vector>

using namespace cypress;
using cypress::detail::ScalarNode;

//===----------------------------------------------------------------------===//
// Node pool and interner
//===----------------------------------------------------------------------===//

namespace {

/// The process-global node pool. A deque gives pointer stability; the mutex
/// is taken only on intern misses (structurally new expressions), never on
/// hits.
struct NodePool {
  std::mutex Mutex;
  std::deque<ScalarNode> Nodes;

  const ScalarNode *add(ScalarNode &&Node) {
    std::lock_guard<std::mutex> Lock(Mutex);
    Nodes.push_back(std::move(Node));
    return &Nodes.back();
  }
};

NodePool &pool() {
  static NodePool Pool;
  return Pool;
}

uint64_t hashCombine(uint64_t Seed, uint64_t Value) {
  // 64-bit variant of boost::hash_combine (splitmix-style mixing).
  Value *= 0x9e3779b97f4a7c15ull;
  Value ^= Value >> 32;
  return Seed * 0x100000001b3ull ^ Value;
}

uint64_t hashNodeProto(const ScalarNode &Proto) {
  uint64_t H = hashCombine(0xcbf29ce484222325ull,
                           static_cast<uint64_t>(Proto.TheKind));
  switch (Proto.TheKind) {
  case ScalarExpr::Kind::Constant:
    return hashCombine(H, static_cast<uint64_t>(Proto.Value));
  case ScalarExpr::Kind::LoopVar:
    H = hashCombine(H, Proto.VarId);
    return hashCombine(H, std::hash<std::string>()(Proto.VarName));
  case ScalarExpr::Kind::ProcIndex:
    return hashCombine(H, static_cast<uint64_t>(Proto.Proc));
  default:
    H = hashCombine(H, reinterpret_cast<uintptr_t>(Proto.Lhs));
    return hashCombine(H, reinterpret_cast<uintptr_t>(Proto.Rhs));
  }
}

/// Intern-table identity: exact payload match, children by pointer. This is
/// finer than equals() — loop variables with one id but different display
/// names intern separately so printing stays faithful per module.
bool protoMatches(const ScalarNode &A, const ScalarNode &B) {
  if (A.TheKind != B.TheKind)
    return false;
  switch (A.TheKind) {
  case ScalarExpr::Kind::Constant:
    return A.Value == B.Value;
  case ScalarExpr::Kind::LoopVar:
    return A.VarId == B.VarId && A.VarName == B.VarName;
  case ScalarExpr::Kind::ProcIndex:
    return A.Proc == B.Proc;
  default:
    return A.Lhs == B.Lhs && A.Rhs == B.Rhs;
  }
}

/// Per-thread interner: dedup table plus the substitution memo. Thread
/// destruction drops only the tables — the nodes they point at are pooled
/// globally, so ScalarExprs handed to other threads stay valid.
struct Interner {
  std::unordered_map<uint64_t, std::vector<const ScalarNode *>> Table;

  struct SubstKey {
    const ScalarNode *Node;
    LoopVarId Var;
    const ScalarNode *Replacement;

    bool operator==(const SubstKey &Other) const {
      return Node == Other.Node && Var == Other.Var &&
             Replacement == Other.Replacement;
    }
  };
  struct SubstKeyHash {
    size_t operator()(const SubstKey &Key) const {
      uint64_t H = hashCombine(reinterpret_cast<uintptr_t>(Key.Node),
                               Key.Var);
      return static_cast<size_t>(
          hashCombine(H, reinterpret_cast<uintptr_t>(Key.Replacement)));
    }
  };
  std::unordered_map<SubstKey, const ScalarNode *, SubstKeyHash> SubstMemo;

  const ScalarNode *intern(ScalarNode &&Proto) {
    uint64_t H = hashNodeProto(Proto);
    std::vector<const ScalarNode *> &Chain = Table[H];
    for (const ScalarNode *Node : Chain)
      if (protoMatches(*Node, Proto))
        return Node;
    const ScalarNode *Node = pool().add(std::move(Proto));
    Chain.push_back(Node);
    return Node;
  }
};

Interner &interner() {
  thread_local Interner TheInterner;
  return TheInterner;
}

/// Constants in [0, SmallConstantCount) are the bulk of all expressions
/// (colors, buffer indices, loop bounds); they intern once globally and
/// resolve with an array load, shared by every thread.
constexpr int64_t SmallConstantCount = 65;

const ScalarNode *const *smallConstants() {
  static const std::vector<const ScalarNode *> Cache = [] {
    std::vector<const ScalarNode *> Nodes;
    Nodes.reserve(SmallConstantCount);
    for (int64_t V = 0; V < SmallConstantCount; ++V) {
      ScalarNode Proto;
      Proto.TheKind = ScalarExpr::Kind::Constant;
      Proto.Value = V;
      Nodes.push_back(pool().add(std::move(Proto)));
    }
    return Nodes;
  }();
  return Cache.data();
}

const ScalarNode *internConstant(int64_t Value) {
  if (Value >= 0 && Value < SmallConstantCount)
    return smallConstants()[Value];
  ScalarNode Proto;
  Proto.TheKind = ScalarExpr::Kind::Constant;
  Proto.Value = Value;
  return interner().intern(std::move(Proto));
}

uint64_t loopVarBit(LoopVarId Id) { return 1ull << (Id % 64); }

} // namespace

//===----------------------------------------------------------------------===//
// Construction
//===----------------------------------------------------------------------===//

ScalarExpr::ScalarExpr() : Node(smallConstants()[0]) {}

ScalarExpr::ScalarExpr(int64_t Value) : Node(internConstant(Value)) {}

ScalarExpr ScalarExpr::loopVar(LoopVarId Id, std::string Name) {
  ScalarNode Proto;
  Proto.TheKind = Kind::LoopVar;
  Proto.VarId = Id;
  Proto.VarName = std::move(Name);
  Proto.LoopVarMask = loopVarBit(Id);
  return wrap(interner().intern(std::move(Proto)));
}

ScalarExpr ScalarExpr::procIndex(Processor Proc) {
  // One immortal node per processor level, shared by every thread: the
  // compiler builds these in inner loops (vectorization substitution,
  // splice adjustment), so they bypass the interner entirely.
  static const std::array<const ScalarNode *, 5> Cache = [] {
    std::array<const ScalarNode *, 5> Nodes{};
    for (size_t I = 0; I < Nodes.size(); ++I) {
      ScalarNode Proto;
      Proto.TheKind = Kind::ProcIndex;
      Proto.Proc = static_cast<Processor>(I);
      Proto.HasProcIndex = true;
      Nodes[I] = pool().add(std::move(Proto));
    }
    return Nodes;
  }();
  size_t Index = static_cast<size_t>(Proc);
  assert(Index < Cache.size() && "unknown processor level");
  return wrap(Cache[Index]);
}

ScalarExpr ScalarExpr::binary(Kind K, const ScalarExpr &L,
                              const ScalarExpr &R) {
  // Constant fold eagerly; symbolic expressions stay small in practice.
  if (L.isConstant() && R.isConstant()) {
    int64_t A = L.constantValue(), B = R.constantValue();
    switch (K) {
    case Kind::Add:
      return ScalarExpr(A + B);
    case Kind::Sub:
      return ScalarExpr(A - B);
    case Kind::Mul:
      return ScalarExpr(A * B);
    case Kind::FloorDiv:
      assert(B != 0 && "division by zero in constant fold");
      return ScalarExpr(A / B);
    case Kind::Mod:
      assert(B != 0 && "modulo by zero in constant fold");
      return ScalarExpr(A % B);
    default:
      cypressUnreachable("non-binary kind in binary fold");
    }
  }
  // Identity simplifications keep printed IR readable.
  if (K == Kind::Add && L.isConstant() && L.constantValue() == 0)
    return R;
  if ((K == Kind::Add || K == Kind::Sub) && R.isConstant() &&
      R.constantValue() == 0)
    return L;
  if (K == Kind::Mul && L.isConstant() && L.constantValue() == 1)
    return R;
  if (K == Kind::Mul && R.isConstant() && R.constantValue() == 1)
    return L;
  if (K == Kind::Mul && ((L.isConstant() && L.constantValue() == 0) ||
                         (R.isConstant() && R.constantValue() == 0)))
    return ScalarExpr(0);
  if (K == Kind::FloorDiv && R.isConstant() && R.constantValue() == 1)
    return L;
  // Anything mod 1 is 0, and a zero numerator divides/reduces to zero
  // regardless of the (symbolic, assumed nonzero — division by zero is
  // checked at evaluation) divisor. These arise from degenerate prange
  // extents and delinearization of rank-1 domains.
  if (K == Kind::Mod && R.isConstant() && R.constantValue() == 1)
    return ScalarExpr(0);
  if ((K == Kind::FloorDiv || K == Kind::Mod) && L.isConstant() &&
      L.constantValue() == 0)
    return ScalarExpr(0);

  ScalarNode Proto;
  Proto.TheKind = K;
  Proto.Lhs = L.Node;
  Proto.Rhs = R.Node;
  Proto.LoopVarMask = L.Node->LoopVarMask | R.Node->LoopVarMask;
  Proto.HasProcIndex = L.Node->HasProcIndex || R.Node->HasProcIndex;
  return wrap(interner().intern(std::move(Proto)));
}

namespace cypress {

ScalarExpr operator+(const ScalarExpr &L, const ScalarExpr &R) {
  return ScalarExpr::binary(ScalarExpr::Kind::Add, L, R);
}
ScalarExpr operator-(const ScalarExpr &L, const ScalarExpr &R) {
  return ScalarExpr::binary(ScalarExpr::Kind::Sub, L, R);
}
ScalarExpr operator*(const ScalarExpr &L, const ScalarExpr &R) {
  return ScalarExpr::binary(ScalarExpr::Kind::Mul, L, R);
}

} // namespace cypress

ScalarExpr ScalarExpr::floorDiv(const ScalarExpr &Divisor) const {
  return binary(Kind::FloorDiv, *this, Divisor);
}

ScalarExpr ScalarExpr::mod(const ScalarExpr &Divisor) const {
  return binary(Kind::Mod, *this, Divisor);
}

//===----------------------------------------------------------------------===//
// Queries
//===----------------------------------------------------------------------===//

int64_t ScalarExpr::evaluate(const ScalarEnv &Env) const {
  const ScalarNode *N = Node;
  switch (N->TheKind) {
  case Kind::Constant:
    return N->Value;
  case Kind::LoopVar:
    return Env.loopVar(N->VarId);
  case Kind::ProcIndex:
    return Env.procIndex(N->Proc);
  case Kind::Add:
    return wrap(N->Lhs).evaluate(Env) + wrap(N->Rhs).evaluate(Env);
  case Kind::Sub:
    return wrap(N->Lhs).evaluate(Env) - wrap(N->Rhs).evaluate(Env);
  case Kind::Mul:
    return wrap(N->Lhs).evaluate(Env) * wrap(N->Rhs).evaluate(Env);
  case Kind::FloorDiv: {
    int64_t D = wrap(N->Rhs).evaluate(Env);
    assert(D != 0 && "division by zero");
    return wrap(N->Lhs).evaluate(Env) / D;
  }
  case Kind::Mod: {
    int64_t D = wrap(N->Rhs).evaluate(Env);
    assert(D != 0 && "modulo by zero");
    return wrap(N->Lhs).evaluate(Env) % D;
  }
  }
  cypressUnreachable("unknown scalar expression kind");
}

ScalarExpr ScalarExpr::substituteLoopVar(LoopVarId Id,
                                         const ScalarExpr &Replacement) const {
  // Bloom prefilter: subtrees that provably don't mention the variable
  // return their own handle, which keeps substitution linear in the touched
  // region of the DAG rather than the whole expression.
  if (!(Node->LoopVarMask & loopVarBit(Id)))
    return *this;
  if (Node->TheKind == Kind::LoopVar)
    return Node->VarId == Id ? Replacement : *this;

  Interner &I = interner();
  Interner::SubstKey Key{Node, Id, Replacement.Node};
  auto It = I.SubstMemo.find(Key);
  if (It != I.SubstMemo.end())
    return wrap(It->second);

  ScalarExpr Result = binary(Node->TheKind,
                             wrap(Node->Lhs).substituteLoopVar(
                                 Id, Replacement),
                             wrap(Node->Rhs).substituteLoopVar(
                                 Id, Replacement));
  // Re-find: binary() may have interned new nodes and rehashed the memo's
  // sibling table, but SubstMemo itself is only touched here.
  I.SubstMemo.emplace(Key, Result.Node);
  return Result;
}

bool ScalarExpr::usesLoopVar(LoopVarId Id) const {
  const ScalarNode *N = Node;
  if (!(N->LoopVarMask & loopVarBit(Id)))
    return false;
  switch (N->TheKind) {
  case Kind::Constant:
  case Kind::ProcIndex:
    return false;
  case Kind::LoopVar:
    return N->VarId == Id;
  default:
    return wrap(N->Lhs).usesLoopVar(Id) ||
           wrap(N->Rhs).usesLoopVar(Id);
  }
}

bool ScalarExpr::periodicIn(LoopVarId Id, int64_t &Period,
                            int64_t &From) const {
  const ScalarNode *N = Node;
  if (!usesLoopVar(Id))
    return true;
  switch (N->TheKind) {
  case Kind::Mod: {
    // (Id + c) mod D, in any of the shapes the builders fold it into.
    const ScalarNode *Lhs = N->Lhs, *Rhs = N->Rhs;
    int64_t Offset = 0;
    bool Shifted = Lhs->TheKind == Kind::LoopVar && Lhs->VarId == Id;
    if (!Shifted && (Lhs->TheKind == Kind::Add || Lhs->TheKind == Kind::Sub)) {
      const ScalarNode *Var = Lhs->Lhs, *C = Lhs->Rhs;
      if (Lhs->TheKind == Kind::Add && Var->TheKind == Kind::Constant)
        std::swap(Var, C);
      if (Var->TheKind == Kind::LoopVar && Var->VarId == Id &&
          C->TheKind == Kind::Constant) {
        Offset = Lhs->TheKind == Kind::Add ? C->Value : -C->Value;
        Shifted = true;
      }
    }
    if (Shifted && Rhs->TheKind == Kind::Constant && Rhs->Value > 0) {
      Period = std::lcm(Period, Rhs->Value);
      From = std::max(From, -Offset);
      return true;
    }
    [[fallthrough]];
  }
  case Kind::Add:
  case Kind::Sub:
  case Kind::Mul:
  case Kind::FloorDiv:
    return wrap(N->Lhs).periodicIn(Id, Period, From) &&
           wrap(N->Rhs).periodicIn(Id, Period, From);
  default:
    return false; // The variable itself, outside a remainder.
  }
}

std::string ScalarExpr::toString() const {
  const ScalarNode *N = Node;
  switch (N->TheKind) {
  case Kind::Constant:
    return std::to_string(N->Value);
  case Kind::LoopVar:
    return N->VarName.empty() ? formatString("v%u", N->VarId) : N->VarName;
  case Kind::ProcIndex:
    switch (N->Proc) {
    case Processor::Block:
      return "block_id()";
    case Processor::Warpgroup:
      return "warpgroup_id()";
    case Processor::Warp:
      return "warp_id()";
    case Processor::Thread:
      return "thread_id()";
    case Processor::Host:
      return "host_id()";
    }
    cypressUnreachable("unknown processor");
  case Kind::Add:
    return "(" + wrap(N->Lhs).toString() + " + " +
           wrap(N->Rhs).toString() + ")";
  case Kind::Sub:
    return "(" + wrap(N->Lhs).toString() + " - " +
           wrap(N->Rhs).toString() + ")";
  case Kind::Mul:
    return "(" + wrap(N->Lhs).toString() + " * " +
           wrap(N->Rhs).toString() + ")";
  case Kind::FloorDiv:
    return "(" + wrap(N->Lhs).toString() + " / " +
           wrap(N->Rhs).toString() + ")";
  case Kind::Mod:
    return "(" + wrap(N->Lhs).toString() + " % " +
           wrap(N->Rhs).toString() + ")";
  }
  cypressUnreachable("unknown scalar expression kind");
}

bool cypress::detail::scalarNodesEqual(const ScalarNode *A,
                                       const ScalarNode *B) {
  if (A == B)
    return true;
  if (A->TheKind != B->TheKind)
    return false;
  switch (A->TheKind) {
  case ScalarExpr::Kind::Constant:
    return A->Value == B->Value;
  case ScalarExpr::Kind::LoopVar:
    return A->VarId == B->VarId;
  case ScalarExpr::Kind::ProcIndex:
    return A->Proc == B->Proc;
  default:
    return scalarNodesEqual(A->Lhs, B->Lhs) &&
           scalarNodesEqual(A->Rhs, B->Rhs);
  }
}
