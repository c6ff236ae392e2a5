#include "factory.hh"

#include "common/log.hh"
#include "schemes/ladder_schemes.hh"
#include "schemes/simple_schemes.hh"
#include "schemes/split_reset.hh"

namespace ladder
{

std::vector<SchemeKind>
allSchemeKinds()
{
    return {SchemeKind::Baseline,    SchemeKind::SplitReset,
            SchemeKind::Blp,         SchemeKind::LadderBasic,
            SchemeKind::LadderEst,   SchemeKind::LadderHybrid,
            SchemeKind::Oracle};
}

std::string
schemeKindName(SchemeKind kind)
{
    switch (kind) {
      case SchemeKind::Baseline: return "baseline";
      case SchemeKind::Location: return "location";
      case SchemeKind::SplitReset: return "Split-reset";
      case SchemeKind::Blp: return "BLP";
      case SchemeKind::LadderBasic: return "LADDER-Basic";
      case SchemeKind::LadderEst: return "LADDER-Est";
      case SchemeKind::LadderEstNoShift: return "LADDER-Est-noshift";
      case SchemeKind::LadderHybrid: return "LADDER-Hybrid";
      case SchemeKind::Oracle: return "Oracle";
    }
    panic("unknown scheme kind");
}

SchemeKind
schemeKindFromName(const std::string &name)
{
    for (SchemeKind kind :
         {SchemeKind::Baseline, SchemeKind::Location,
          SchemeKind::SplitReset, SchemeKind::Blp,
          SchemeKind::LadderBasic, SchemeKind::LadderEst,
          SchemeKind::LadderEstNoShift, SchemeKind::LadderHybrid,
          SchemeKind::Oracle}) {
        if (schemeKindName(kind) == name)
            return kind;
    }
    fatal("unknown scheme name '%s'", name.c_str());
}

std::shared_ptr<WriteScheme>
makeScheme(SchemeKind kind, const TimingModel &model,
           std::shared_ptr<MetadataLayout> layout,
           const SchemeOptions &opts)
{
    switch (kind) {
      case SchemeKind::Baseline:
        return std::make_shared<BaselineScheme>();
      case SchemeKind::Location:
        return std::make_shared<LocationScheme>();
      case SchemeKind::SplitReset:
        return std::make_shared<SplitResetScheme>(model);
      case SchemeKind::Blp:
        return std::make_shared<BlpScheme>();
      case SchemeKind::LadderBasic:
        return std::make_shared<LadderBasicScheme>(layout);
      case SchemeKind::LadderEst:
        return std::make_shared<LadderEstScheme>(layout, true);
      case SchemeKind::LadderEstNoShift:
        return std::make_shared<LadderEstScheme>(layout, false);
      case SchemeKind::LadderHybrid:
        return std::make_shared<LadderHybridScheme>(
            layout, true, opts.hybridLowRows);
      case SchemeKind::Oracle:
        return std::make_shared<OracleScheme>();
    }
    panic("unknown scheme kind");
}

} // namespace ladder
