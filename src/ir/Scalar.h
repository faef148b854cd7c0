//===- Scalar.h - Symbolic scalar expressions ------------------------------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Symbolic integer expressions for the Cypress IR. Loop induction variables
/// and processor indices (the warp/thread ids substituted by vectorization,
/// Section 4.2.2) stay symbolic through the pass pipeline; everything else
/// constant-folds on construction. Expressions evaluate to concrete values
/// during simulation/codegen once an environment binds every variable.
///
/// Expressions are hash-consed: construction dedupes into an immortal node
/// pool, so a ScalarExpr is one pointer, copies are free, and structural
/// equality is (almost always) a pointer comparison. Nodes live until
/// process exit — the pool never shrinks — which makes expressions safe to
/// move across threads (compiler worker pools hand modules to other
/// threads) at the cost of retaining every *distinct* expression ever
/// built; the distinct-expression population of a compile is tiny and
/// recurs across tuner sweeps, so the pool plateaus in practice.
///
//===----------------------------------------------------------------------===//

#ifndef CYPRESS_IR_SCALAR_H
#define CYPRESS_IR_SCALAR_H

#include "machine/Machine.h"
#include "support/Error.h"

#include <cstdint>
#include <map>
#include <string>

namespace cypress {

/// Identifies a loop induction variable.
using LoopVarId = uint32_t;

/// Environment binding loop variables and processor indices to values.
struct ScalarEnv {
  std::map<LoopVarId, int64_t> LoopVars;
  std::map<Processor, int64_t> ProcIndices;

  int64_t loopVar(LoopVarId Id) const {
    auto It = LoopVars.find(Id);
    assert(It != LoopVars.end() && "unbound loop variable");
    return It->second;
  }

  int64_t procIndex(Processor Proc) const {
    auto It = ProcIndices.find(Proc);
    assert(It != ProcIndices.end() && "unbound processor index");
    return It->second;
  }
};

namespace detail {
struct ScalarNode;
}

/// An immutable symbolic integer expression with value semantics. One
/// interned-node pointer wide: trivially copyable and cheap to store in the
/// slice/event structures that the compiler copies constantly.
class ScalarExpr {
public:
  enum class Kind : uint8_t {
    Constant,
    LoopVar,
    ProcIndex,
    Add,
    Sub,
    Mul,
    FloorDiv,
    Mod,
  };

  /// Default-constructs the constant 0.
  ScalarExpr();
  /*implicit*/ ScalarExpr(int64_t Value);

  static ScalarExpr constant(int64_t Value) { return ScalarExpr(Value); }
  static ScalarExpr loopVar(LoopVarId Id, std::string Name);
  static ScalarExpr procIndex(Processor Proc);

  friend ScalarExpr operator+(const ScalarExpr &L, const ScalarExpr &R);
  friend ScalarExpr operator-(const ScalarExpr &L, const ScalarExpr &R);
  friend ScalarExpr operator*(const ScalarExpr &L, const ScalarExpr &R);
  /// Floor division (C-style for non-negative operands).
  ScalarExpr floorDiv(const ScalarExpr &Divisor) const;
  ScalarExpr mod(const ScalarExpr &Divisor) const;

  Kind kind() const;
  bool isConstant() const;
  /// The constant value; asserts isConstant().
  int64_t constantValue() const;
  /// True when the expression is exactly the index of processor \p Proc.
  bool isProcIndex(Processor Proc) const;

  /// Evaluates with all variables bound by \p Env.
  int64_t evaluate(const ScalarEnv &Env) const;

  /// Substitutes loop variable \p Id with \p Replacement everywhere.
  /// Used by vectorization to replace pfor induction variables with
  /// processor indices, and by pipelining for modular rotation. Memoized
  /// per (node, variable, replacement) in the interner, and a no-op —
  /// returning the same handle — when the expression does not mention the
  /// variable.
  ScalarExpr substituteLoopVar(LoopVarId Id,
                               const ScalarExpr &Replacement) const;

  /// True if the expression mentions loop variable \p Id.
  bool usesLoopVar(LoopVarId Id) const;
  /// True if the expression mentions any processor index.
  bool usesProcIndex() const;

  /// True when the value, as a function of loop variable \p Id with every
  /// other variable fixed, repeats with period \p Period for all values of
  /// \p Id at or above \p From. Recognized: every mention of \p Id sits in
  /// a remainder `(Id + c) mod D` with constants c and D > 0, which repeats
  /// with period D once Id + c >= 0. On success \p Period is widened to the
  /// least common multiple and \p From raised as needed; both are left
  /// as they are when \p Id is not mentioned.
  bool periodicIn(LoopVarId Id, int64_t &Period, int64_t &From) const;

  std::string toString() const;

  /// Structural equality. Identically-constructed expressions on one thread
  /// intern to the same node, so this is usually a pointer comparison; the
  /// structural fallback covers nodes built on different threads and
  /// same-id loop variables registered under different display names.
  bool equals(const ScalarExpr &Other) const;

  /// The interned node identity. Stable for the process lifetime; equal
  /// handles imply equal expressions (the converse holds for expressions
  /// constructed identically on one thread). Exposed for tests and for
  /// hashed containers keyed on expression identity.
  const void *handle() const { return Node; }

private:
  struct FromNode {};
  ScalarExpr(FromNode, const detail::ScalarNode *Node) : Node(Node) {}
  /// Wraps an interned node (disambiguated from the int64_t constructor,
  /// for which a literal 0 would otherwise also be a null pointer match).
  static ScalarExpr wrap(const detail::ScalarNode *Node) {
    return ScalarExpr(FromNode{}, Node);
  }
  static ScalarExpr binary(Kind K, const ScalarExpr &L, const ScalarExpr &R);

  const detail::ScalarNode *Node;
};

namespace detail {

/// One interned expression node. Immutable after construction; child links
/// point at other interned nodes, so the whole population forms a DAG.
/// Defined in the header only so ScalarExpr's hot accessors can inline.
struct ScalarNode {
  ScalarExpr::Kind TheKind = ScalarExpr::Kind::Constant;
  Processor Proc = Processor::Thread; ///< ProcIndex payload.
  bool HasProcIndex = false;          ///< Any ProcIndex in the subtree.
  LoopVarId VarId = 0;                ///< LoopVar payload.
  int64_t Value = 0;                  ///< Constant payload.
  const ScalarNode *Lhs = nullptr;    ///< Binary payload.
  const ScalarNode *Rhs = nullptr;    ///< Binary payload.
  /// Bloom filter over (VarId % 64) of every loop variable in the subtree;
  /// zero means provably loop-variable-free.
  uint64_t LoopVarMask = 0;
  std::string VarName;                ///< LoopVar payload.
};

/// Structural equality with pointer short-circuit at every level (loop
/// variables compare by id, ignoring display names, exactly as the
/// pre-interning implementation did).
bool scalarNodesEqual(const ScalarNode *A, const ScalarNode *B);

} // namespace detail

inline ScalarExpr::Kind ScalarExpr::kind() const { return Node->TheKind; }

inline bool ScalarExpr::isConstant() const {
  return Node->TheKind == Kind::Constant;
}

inline int64_t ScalarExpr::constantValue() const {
  assert(isConstant() && "expression is not constant");
  return Node->Value;
}

inline bool ScalarExpr::isProcIndex(Processor Proc) const {
  return Node->TheKind == Kind::ProcIndex && Node->Proc == Proc;
}

inline bool ScalarExpr::usesProcIndex() const { return Node->HasProcIndex; }

inline bool ScalarExpr::equals(const ScalarExpr &Other) const {
  return Node == Other.Node || detail::scalarNodesEqual(Node, Other.Node);
}

} // namespace cypress

#endif // CYPRESS_IR_SCALAR_H
