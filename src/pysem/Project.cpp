//===- pysem/Project.cpp - The source files of one repository -------------===//

#include "pysem/Project.h"

#include "support/StrUtil.h"

using namespace seldon;
using namespace seldon::pysem;

std::string Project::moduleNameForPath(std::string_view Path) {
  std::string_view P = Path;
  if (P.size() >= 3 && P.substr(P.size() - 3) == ".py")
    P.remove_suffix(3);
  std::vector<std::string> Parts = splitString(P, '/');
  if (!Parts.empty() && Parts.back() == "__init__")
    Parts.pop_back();
  return joinStrings(Parts, ".");
}

const ModuleInfo &Project::addModule(std::string Path,
                                     std::string_view Source) {
  ModuleInfo Info;
  Info.Path = std::move(Path);
  Info.ModuleName = moduleNameForPath(Info.Path);
  Info.Source = std::string(Source);
  Modules.push_back(std::move(Info));
  return Modules.back();
}
