//===- Mapping.cpp - Mapping specification ----------------------------------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "mapping/Mapping.h"

#include "support/Format.h"

using namespace cypress;

MappingSpec::MappingSpec(std::vector<TaskMapping> Instances)
    : Instances(std::move(Instances)) {
  for (size_t I = 0, E = this->Instances.size(); I != E; ++I) {
    [[maybe_unused]] auto [It, Fresh] =
        Index.emplace(this->Instances[I].Instance, I);
    assert(Fresh && "duplicate mapping instance name");
  }
  Fingerprint = serialize(/*Knobs=*/true);
  // Kept for the spec's lifetime: drop the slack left by the appends'
  // capacity doubling (up to half the string).
  Fingerprint.shrink_to_fit();
}

const TaskMapping &MappingSpec::instance(const std::string &Name) const {
  auto It = Index.find(Name);
  assert(It != Index.end() && "unknown mapping instance");
  return Instances[It->second];
}

const TaskMapping &MappingSpec::entrypoint() const {
  for (const TaskMapping &TM : Instances)
    if (TM.Entrypoint)
      return TM;
  cypressUnreachable("mapping has no entrypoint instance");
}

std::string MappingSpec::serialize(bool Knobs) const {
  std::string Out = "mapping{";
  for (const TaskMapping &Inst : Instances) {
    appendTo(Out, Inst.Instance, '=', Inst.Variant, '@',
             static_cast<int>(Inst.Proc), '[');
    for (Memory Mem : Inst.Mems)
      appendTo(Out, static_cast<int>(Mem), ',');
    Out += "]t{";
    for (const auto &[Key, Value] : Inst.Tunables)
      appendTo(Out, Key, '=', Value, ',');
    for (const auto &[Key, Value] : Inst.ProcTunables)
      appendTo(Out, Key, "=p", static_cast<int>(Value), ',');
    Out += "}m{";
    for (const auto &[Key, Value] : Inst.TempMems)
      appendTo(Out, Key, '=', static_cast<int>(Value), ',');
    Out += "}c{";
    for (const std::string &Call : Inst.Calls)
      appendTo(Out, Call, ',');
    Out += '}';
    if (Knobs) {
      Out += "a{";
      for (const auto &[Key, Value] : Inst.ArgPipeline)
        appendTo(Out, Key, '=', Value, ',');
      for (const std::string &Param : Inst.SimtCopyParams)
        appendTo(Out, Param, "=simt,");
      Out += '}';
    }
    appendTo(Out, Inst.Entrypoint ? 'E' : '-', Inst.WarpSpecialize ? 'W' : '-');
    if (Knobs)
      appendTo(Out, 'p', Inst.PipelineDepth, 's', Inst.SharedLimitBytes);
    Out += ' ';
  }
  Out += '}';
  return Out;
}

ErrorOr<std::string> MappingSpec::dispatch(const TaskRegistry &Registry,
                                           const TaskMapping &Parent,
                                           const std::string &Task) const {
  for (const std::string &Callee : Parent.Calls) {
    if (!hasInstance(Callee))
      return Diagnostic(formatString(
          "instance %s calls unknown instance %s", Parent.Instance.c_str(),
          Callee.c_str()));
    const TaskMapping &Child = instance(Callee);
    if (!Registry.hasVariant(Child.Variant))
      return Diagnostic(formatString("instance %s uses unknown variant %s",
                                     Child.Instance.c_str(),
                                     Child.Variant.c_str()));
    if (Registry.variant(Child.Variant).Task == Task)
      return Callee;
  }
  return Diagnostic(formatString(
      "instance %s has no dispatch target for task %s (add it to calls)",
      Parent.Instance.c_str(), Task.c_str()));
}

ErrorOrVoid MappingSpec::validate(const TaskRegistry &Registry,
                                  const MachineModel &Machine) const {
  unsigned EntryCount = 0;
  for (const TaskMapping &TM : Instances) {
    if (TM.Entrypoint)
      ++EntryCount;

    if (!Registry.hasVariant(TM.Variant))
      return Diagnostic(formatString("instance %s names unknown variant %s",
                                     TM.Instance.c_str(),
                                     TM.Variant.c_str()));
    const TaskVariant &Variant = Registry.variant(TM.Variant);

    if (!Machine.hasLevel(TM.Proc))
      return Diagnostic(formatString(
          "instance %s targets processor %s absent from machine %s",
          TM.Instance.c_str(), processorName(TM.Proc),
          Machine.name().c_str()));

    if (TM.Mems.size() != Variant.Params.size())
      return Diagnostic(formatString(
          "instance %s maps %zu memories but variant %s has %zu params",
          TM.Instance.c_str(), TM.Mems.size(), TM.Variant.c_str(),
          Variant.Params.size()));

    for (size_t I = 0, E = TM.Mems.size(); I != E; ++I) {
      Memory Mem = TM.Mems[I];
      if (Mem == Memory::None)
        continue;
      // Leaf variants must be able to address their data from the level
      // they run on; inner variants only pass data through, so an outer
      // placement (e.g. global tensors named by a host task) is fine as
      // long as the memory exists on the machine.
      if (Variant.Kind == VariantKind::Leaf &&
          !Machine.canAccess(TM.Proc, Mem))
        return Diagnostic(formatString(
            "instance %s places arg %s in %s, not addressable from %s",
            TM.Instance.c_str(), Variant.Params[I].Name.c_str(),
            memoryName(Mem), processorName(TM.Proc)));
    }

    if (TM.PipelineDepth < 1)
      return Diagnostic(formatString("instance %s has pipeline depth %lld",
                                     TM.Instance.c_str(),
                                     static_cast<long long>(TM.PipelineDepth)));

    // Per-parameter knobs must name real parameters of the variant: a typo
    // here would silently leave the default behavior in place.
    auto HasParam = [&](const std::string &Name) {
      for (const TaskParam &Param : Variant.Params)
        if (Param.Name == Name)
          return true;
      return false;
    };
    for (const auto &[Param, Depth] : TM.ArgPipeline) {
      if (!HasParam(Param))
        return Diagnostic(formatString(
            "instance %s pipelines unknown parameter %s of variant %s",
            TM.Instance.c_str(), Param.c_str(), TM.Variant.c_str()));
      if (Depth < 1)
        return Diagnostic(formatString(
            "instance %s gives parameter %s pipeline depth %lld",
            TM.Instance.c_str(), Param.c_str(),
            static_cast<long long>(Depth)));
    }
    for (const std::string &Param : TM.SimtCopyParams)
      if (!HasParam(Param))
        return Diagnostic(formatString(
            "instance %s pins copies of unknown parameter %s of variant %s",
            TM.Instance.c_str(), Param.c_str(), TM.Variant.c_str()));

    for (const std::string &Callee : TM.Calls) {
      if (!hasInstance(Callee))
        return Diagnostic(formatString("instance %s calls unknown instance %s",
                                       TM.Instance.c_str(), Callee.c_str()));
      const TaskMapping &Child = instance(Callee);
      if (!Registry.hasVariant(Child.Variant))
        return Diagnostic(formatString("instance %s uses unknown variant %s",
                                       Child.Instance.c_str(),
                                       Child.Variant.c_str()));
      if (Machine.depthOf(Child.Proc) < Machine.depthOf(TM.Proc))
        return Diagnostic(formatString(
            "instance %s (at %s) dispatches outward to %s (at %s)",
            TM.Instance.c_str(), processorName(TM.Proc),
            Child.Instance.c_str(), processorName(Child.Proc)));
    }
  }

  if (EntryCount != 1)
    return Diagnostic(formatString(
        "mapping must have exactly one entrypoint, found %u", EntryCount));
  return ErrorOrVoid::success();
}
