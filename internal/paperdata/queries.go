package paperdata

// Query1Text is the paper's Query 1 (Sec. 1): for each author, the
// titles of that author's articles.
const Query1Text = `
FOR $a IN distinct-values(document("bib.xml")//author)
RETURN
<authorpubs>
  {$a}
  {
    FOR $b IN document("bib.xml")//article
    WHERE $a = $b/author
    RETURN $b/title
  }
</authorpubs>`

// QueryCountText is the Sec. 6 variant returning only the count of
// titles per author.
const QueryCountText = `
FOR $a IN distinct-values(document("bib.xml")//author)
LET $t := document("bib.xml")//article[author = $a]/title
RETURN
<authorpubs>
  {$a} {count($t)}
</authorpubs>`
