#include "storage/catalog.h"

#include <algorithm>

namespace aidx {

Status Catalog::AddTable(std::unique_ptr<Table> table) {
  if (table == nullptr) return Status::InvalidArgument("cannot add null table");
  if (table->name().empty()) return Status::InvalidArgument("table name must be non-empty");
  if (tables_.contains(table->name())) {
    return Status::AlreadyExists("table '" + table->name() + "' already exists");
  }
  std::string key = table->name();
  tables_.emplace(std::move(key), std::move(table));
  return Status::OK();
}

Result<Table*> Catalog::CreateTable(std::string name) {
  auto table = std::make_unique<Table>(std::move(name));
  Table* raw = table.get();
  AIDX_RETURN_NOT_OK(AddTable(std::move(table)));
  return raw;
}

Result<Table*> Catalog::GetTable(std::string_view name) const {
  const auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("no table named '" + std::string(name) + "'");
  }
  return it->second.get();
}

Status Catalog::DropTable(std::string_view name) {
  const auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("no table named '" + std::string(name) + "'");
  }
  tables_.erase(it);
  return Status::OK();
}

std::vector<std::string> Catalog::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, _] : tables_) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace aidx
